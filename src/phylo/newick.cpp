#include "phylo/newick.hpp"

#include <algorithm>
#include <cctype>
#include <vector>

#include "support/error.hpp"

namespace gentrius::phylo {
namespace {

using support::InvalidInput;
using support::ParseError;

class Parser {
 public:
  Parser(std::string_view text, TaxonSet& taxa, const NewickOptions& options)
      : text_(text), taxa_(taxa), options_(options) {}

  Tree parse() {
    Tree tree;
    skip_space();
    const VertexId root = parse_subtree(tree);
    skip_space();
    if (pos_ < text_.size() && text_[pos_] == ';') ++pos_;
    skip_space();
    if (pos_ != text_.size())
      throw ParseError("trailing characters after tree", pos_);
    finalize_root(tree, root);
    if (options_.require_binary) check_binary(tree);
    return tree;
  }

 private:
  // subtree := leaf | '(' subtree (',' subtree)+ ')' [label] [':'length]
  VertexId parse_subtree(Tree& tree) {
    skip_space();
    if (eof()) throw ParseError("unexpected end of input", pos_);
    if (text_[pos_] == '(') {
      ++pos_;
      std::vector<VertexId> children;
      children.push_back(parse_subtree(tree));
      skip_space();
      while (!eof() && text_[pos_] == ',') {
        ++pos_;
        children.push_back(parse_subtree(tree));
        skip_space();
      }
      if (eof() || text_[pos_] != ')')
        throw ParseError("expected ')' or ','", pos_);
      ++pos_;
      parse_label();  // internal labels are ignored
      parse_length();
      if (children.size() < 2)
        throw ParseError("internal node with a single child", pos_);
      const VertexId v = tree.alloc_vertex(kNoTaxon);
      degrees_.resize(std::max<std::size_t>(degrees_.size(), v + 1), 0);
      for (const VertexId c : children) link(tree, v, c);
      return v;
    }
    const std::string label = parse_label();
    if (label.empty()) throw ParseError("expected a taxon label", pos_);
    parse_length();
    TaxonId id;
    if (options_.register_new_taxa) {
      id = taxa_.add(label);
    } else {
      id = taxa_.id_of(label);
    }
    if (tree.has_taxon(id))
      throw InvalidInput("duplicate taxon label in tree: " + label);
    const VertexId v = tree.alloc_vertex(id);
    degrees_.resize(std::max<std::size_t>(degrees_.size(), v + 1), 0);
    return v;
  }

  void link(Tree& tree, VertexId parent, VertexId child) {
    // The Tree adjacency holds at most 3 slots; polytomies would overflow it,
    // so we count degrees separately and fail with a proper error first.
    degrees_.resize(
        std::max({degrees_.size(), std::size_t{parent} + 1, std::size_t{child} + 1}),
        0);
    if (degrees_[parent] >= 3 || degrees_[child] >= 3)
      throw InvalidInput("non-binary tree: vertex of degree > 3");
    tree.alloc_edge(parent, child);
    ++degrees_[parent];
    ++degrees_[child];
  }

  void finalize_root(Tree& tree, VertexId root) {
    // A rooted binary representation has a degree-2 root; suppress it to get
    // the unrooted tree. Degree-1 roots occur for "(A);"-style inputs.
    const auto deg = tree.vertex(root).degree;
    if (tree.vertex(root).taxon != kNoTaxon) return;  // bare leaf "A;"
    if (deg == 2) {
      const auto& vx = tree.vertex(root);
      const EdgeId e1 = vx.adj[0].edge;
      const VertexId a = vx.adj[0].to;
      const EdgeId e2 = vx.adj[1].edge;
      const VertexId b = vx.adj[1].to;
      suppress(tree, root, e1, a, e2, b);
    } else if (deg < 2) {
      throw InvalidInput("tree has fewer than two taxa below the root");
    }
  }

  static void suppress(Tree& tree, VertexId mid, EdgeId e1, VertexId a,
                       EdgeId e2, VertexId b) {
    // Construction-time only: ids carry no contract yet, so we rebuild the
    // two edges as one via the public allocation helpers.
    tree.unlink_edge(e1);
    tree.unlink_edge(e2);
    tree.drop_isolated_vertex(mid);
    tree.alloc_edge(a, b);
  }

  void check_binary(const Tree& tree) const {
    bool ok = true;
    tree.for_each_edge([&](EdgeId e) {
      const auto& ed = tree.edge(e);
      for (const VertexId v : {ed.u, ed.v}) {
        const auto& vx = tree.vertex(v);
        if (vx.taxon == kNoTaxon && vx.degree != 3) ok = false;
        if (vx.taxon != kNoTaxon && vx.degree != 1) ok = false;
      }
    });
    if (!ok) throw InvalidInput("tree is not an unrooted binary tree");
  }

  bool eof() const noexcept { return pos_ >= text_.size(); }

  void skip_space() {
    for (;;) {
      while (!eof() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
      if (!eof() && text_[pos_] == '[') {  // bracketed comment
        const std::size_t start = pos_;
        while (!eof() && text_[pos_] != ']') ++pos_;
        if (eof()) throw ParseError("unterminated comment", start);
        ++pos_;
        continue;
      }
      return;
    }
  }

  std::string parse_label() {
    skip_space();
    std::string out;
    if (!eof() && text_[pos_] == '\'') {
      ++pos_;
      for (;;) {
        if (eof()) throw ParseError("unterminated quoted label", pos_);
        const char c = text_[pos_++];
        if (c == '\'') {
          if (!eof() && text_[pos_] == '\'') {  // escaped quote
            out.push_back('\'');
            ++pos_;
          } else {
            break;
          }
        } else {
          out.push_back(c);
        }
      }
      return out;
    }
    while (!eof()) {
      const char c = text_[pos_];
      if (c == '(' || c == ')' || c == ',' || c == ':' || c == ';' ||
          c == '[' || std::isspace(static_cast<unsigned char>(c)))
        break;
      out.push_back(c);
      ++pos_;
    }
    return out;
  }

  void parse_length() {
    skip_space();
    if (eof() || text_[pos_] != ':') return;
    ++pos_;
    skip_space();
    const std::size_t start = pos_;
    while (!eof()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == '-' || c == '+' ||
          c == 'e' || c == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) throw ParseError("expected branch length after ':'", pos_);
  }

  std::string_view text_;
  TaxonSet& taxa_;
  NewickOptions options_;
  std::size_t pos_ = 0;
  std::vector<std::uint8_t> degrees_;
};

std::string quote_label(const std::string& name) {
  bool needs = name.empty();
  for (const char c : name) {
    if (c == '(' || c == ')' || c == '[' || c == ']' || c == ':' || c == ';' ||
        c == ',' || c == '\'' || std::isspace(static_cast<unsigned char>(c))) {
      needs = true;
      break;
    }
  }
  if (!needs) return name;
  std::string out = "'";
  for (const char c : name) {
    if (c == '\'') out += "''";
    else out.push_back(c);
  }
  out.push_back('\'');
  return out;
}

void write_subtree(const Tree& tree, const TaxonSet& taxa, VertexId v,
                   VertexId from, std::string& out) {
  const auto& vx = tree.vertex(v);
  if (vx.taxon != kNoTaxon) {
    out += quote_label(taxa.name(vx.taxon));
    return;
  }
  out.push_back('(');
  bool first = true;
  for (std::uint8_t i = 0; i < vx.degree; ++i) {
    if (vx.adj[i].to == from) continue;
    if (!first) out.push_back(',');
    first = false;
    write_subtree(tree, taxa, vx.adj[i].to, v, out);
  }
  out.push_back(')');
}

std::string canonical_subtree(const Tree& tree, const TaxonSet& taxa,
                              VertexId v, VertexId from) {
  const auto& vx = tree.vertex(v);
  if (vx.taxon != kNoTaxon) return quote_label(taxa.name(vx.taxon));
  std::vector<std::string> parts;
  for (std::uint8_t i = 0; i < vx.degree; ++i) {
    if (vx.adj[i].to == from) continue;
    parts.push_back(canonical_subtree(tree, taxa, vx.adj[i].to, v));
  }
  std::sort(parts.begin(), parts.end());
  std::string out = "(";
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out.push_back(',');
    out += parts[i];
  }
  out.push_back(')');
  return out;
}

}  // namespace

Tree parse_newick(std::string_view text, TaxonSet& taxa,
                  const NewickOptions& options) {
  return Parser(text, taxa, options).parse();
}

std::string to_newick(const Tree& tree, const TaxonSet& taxa) {
  const auto taxa_present = tree.taxa();
  if (taxa_present.empty()) return ";";
  if (taxa_present.size() == 1) return quote_label(taxa.name(taxa_present[0])) + ";";
  // Root the serialization at the lowest-id leaf's edge.
  const VertexId leaf = tree.leaf_of(taxa_present[0]);
  const VertexId nb = tree.vertex(leaf).adj[0].to;
  std::string out = "(";
  out += quote_label(taxa.name(taxa_present[0]));
  out.push_back(',');
  if (tree.vertex(nb).taxon != kNoTaxon) {
    out += quote_label(taxa.name(tree.vertex(nb).taxon));
  } else {
    const auto& vx = tree.vertex(nb);
    bool first = true;
    for (std::uint8_t i = 0; i < vx.degree; ++i) {
      if (vx.adj[i].to == leaf) continue;
      if (!first) out.push_back(',');
      first = false;
      write_subtree(tree, taxa, vx.adj[i].to, nb, out);
    }
  }
  out += ");";
  return out;
}

std::string canonical_newick(const Tree& tree, const TaxonSet& taxa) {
  const auto taxa_present = tree.taxa();
  if (taxa_present.empty()) return ";";
  if (taxa_present.size() == 1) return quote_label(taxa.name(taxa_present[0])) + ";";
  const VertexId leaf = tree.leaf_of(taxa_present[0]);
  const VertexId nb = tree.vertex(leaf).adj[0].to;
  // Appended into one string: "(" + std::string&& trips GCC 12's -O3
  // -Wrestrict false positive inside libstdc++.
  std::string out = "(";
  out += quote_label(taxa.name(taxa_present[0]));
  out += ',';
  out += canonical_subtree(tree, taxa, nb, leaf);
  out += ");";
  return out;
}

}  // namespace gentrius::phylo
