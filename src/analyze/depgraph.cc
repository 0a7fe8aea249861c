#include "analyze/depgraph.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/str_util.h"

namespace dynview {

namespace {

std::string TableNode(const TableRef& t) { return "table " + t.ToString(); }

std::string ViewNode(size_t index, const ViewDefinition& view) {
  return "view[" + std::to_string(index) + "] " + view.DisplayName();
}

std::string IndexNode(const AuditIndexInfo& info) {
  return "index " + info.name;
}

std::string TermText(const NameTerm& t) {
  return t.is_variable ? "$" + t.text : t.text;
}

int EdgeKindRank(DepEdge::Kind k) {
  switch (k) {
    case DepEdge::Kind::kReads: return 0;
    case DepEdge::Kind::kMaterializesInto: return 1;
    case DepEdge::Kind::kIndexReads: return 2;
  }
  return 3;
}

const char* EdgeKindArrow(DepEdge::Kind k) {
  switch (k) {
    case DepEdge::Kind::kReads: return "reads->";
    case DepEdge::Kind::kMaterializesInto: return "writes->";
    case DepEdge::Kind::kIndexReads: return "indexes->";
  }
  return "->";
}

/// The attribute-level annotation of one (table, view) reads-edge: for each
/// view output position whose domain variable ranges over an attribute of a
/// tuple variable declared on `table_pos`, "src_attr->out_attr". View
/// variables (the Db/Rel/Att terms) count as outputs too — they are the
/// schematic columns of the view.
std::string ReadEdgeAttributes(const ViewDefinition& view, size_t table_pos) {
  const std::string& tuple_var = view.tuple_vars()[table_pos];
  std::set<std::string> entries;
  auto add = [&](const std::string& body_var, const std::string& out_name) {
    const ViewDefinition::DomainDecl* decl = view.FindDomainDecl(body_var);
    if (decl == nullptr) return;
    if (ToLower(decl->tuple_var) != ToLower(tuple_var)) return;
    entries.insert(TermText(decl->attr) + "->" + out_name);
  };
  for (size_t i = 0; i < view.att_terms().size(); ++i) {
    add(view.dom_of(i), TermText(view.att_terms()[i]));
  }
  if (view.db_term().is_variable) {
    add(view.db_term().text, "$" + view.db_term().text);
  }
  if (view.rel_term().is_variable) {
    add(view.rel_term().text, "$" + view.rel_term().text);
  }
  for (const NameTerm& a : view.att_terms()) {
    if (a.is_variable) add(a.text, "$" + a.text);
  }
  std::string out;
  for (const std::string& e : entries) {
    if (!out.empty()) out += ",";
    out += e;
  }
  return out;
}

/// Counts strongly connected components of size >= 2 (iterative Tarjan over
/// the node-index adjacency) and renders their members.
void FindCycles(const std::map<std::string, size_t>& node_ids,
                const std::vector<DepEdge>& edges, DepGraphStats* stats,
                std::vector<std::string>* out) {
  const size_t n = node_ids.size();
  std::vector<std::string> names(n);
  for (const auto& [name, id] : node_ids) names[id] = name;
  std::vector<std::vector<size_t>> adj(n);
  for (const DepEdge& e : edges) {
    adj[node_ids.at(e.from)].push_back(node_ids.at(e.to));
  }
  std::vector<int> index(n, -1), low(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<size_t> stack;
  int next_index = 0;
  struct Frame {
    size_t v;
    size_t child = 0;
  };
  for (size_t root = 0; root < n; ++root) {
    if (index[root] >= 0) continue;
    std::vector<Frame> frames{{root}};
    index[root] = low[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.child < adj[f.v].size()) {
        size_t w = adj[f.v][f.child++];
        if (index[w] < 0) {
          index[w] = low[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = true;
          frames.push_back({w});
        } else if (on_stack[w]) {
          low[f.v] = std::min(low[f.v], index[w]);
        }
      } else {
        if (low[f.v] == index[f.v]) {
          std::vector<std::string> members;
          while (true) {
            size_t w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            members.push_back(names[w]);
            if (w == f.v) break;
          }
          if (members.size() >= 2) {
            ++stats->cycles;
            std::sort(members.begin(), members.end());
            std::string line;
            for (const std::string& m : members) {
              if (!line.empty()) line += " <-> ";
              line += m;
            }
            out->push_back(std::move(line));
          }
        }
        size_t v = f.v;
        frames.pop_back();
        if (!frames.empty()) {
          low[frames.back().v] = std::min(low[frames.back().v], low[v]);
        }
      }
    }
  }
  std::sort(out->begin(), out->end());
}

}  // namespace

DependencyGraph DependencyGraph::Build(
    const CatalogSnapshot& snap, const std::string& integration_db,
    const std::vector<std::shared_ptr<ViewDefinition>>& sources,
    const std::vector<AuditIndexInfo>& indexes) {
  DependencyGraph g;
  std::map<std::string, size_t> node_ids;
  auto intern = [&](const std::string& name) {
    auto [it, inserted] = node_ids.emplace(name, node_ids.size());
    (void)inserted;
    return it->first;
  };

  // Databases the workload references (audit scope for unused detection).
  std::set<std::string> workload_dbs;
  // Tables with any edge at all.
  std::set<std::string> used_tables;

  for (size_t i = 0; i < sources.size(); ++i) {
    const ViewDefinition& view = *sources[i];
    const std::string vnode = ViewNode(i, view);
    intern(vnode);
    std::set<std::string> seen;  // Dedup repeated scans of one table.
    for (size_t t = 0; t < view.tables().size(); ++t) {
      const TableRef& ref = view.tables()[t];
      workload_dbs.insert(ref.db);
      used_tables.insert(ref.ToString());
      std::string annot = ReadEdgeAttributes(view, t);
      const std::string tnode = TableNode(ref);
      intern(tnode);
      std::string key = tnode + "|" + annot;
      if (!seen.insert(key).second) continue;
      g.edges_.push_back(
          DepEdge{DepEdge::Kind::kReads, tnode, vnode, std::move(annot)});
    }
    for (const TableRef& ref : view.materialization()) {
      workload_dbs.insert(ref.db);
      used_tables.insert(ref.ToString());
      const std::string tnode = TableNode(ref);
      intern(tnode);
      g.edges_.push_back(
          DepEdge{DepEdge::Kind::kMaterializesInto, vnode, tnode, ""});
    }
  }
  for (const AuditIndexInfo& info : indexes) {
    const std::string inode = IndexNode(info);
    intern(inode);
    for (const TableRef& ref : info.tables) {
      workload_dbs.insert(ref.db);
      used_tables.insert(ref.ToString());
      const std::string tnode = TableNode(ref);
      intern(tnode);
      g.edges_.push_back(
          DepEdge{DepEdge::Kind::kIndexReads, tnode, inode, ""});
    }
  }

  std::sort(g.edges_.begin(), g.edges_.end(),
            [](const DepEdge& a, const DepEdge& b) {
              if (a.from != b.from) return a.from < b.from;
              if (a.to != b.to) return a.to < b.to;
              if (a.kind != b.kind) {
                return EdgeKindRank(a.kind) < EdgeKindRank(b.kind);
              }
              return a.attributes < b.attributes;
            });

  // Stats: node counts by class, fan-in per table, fan-out per view.
  g.stats_.views = sources.size();
  g.stats_.indexes = indexes.size();
  std::map<std::string, std::set<std::string>> fan_in;   // table -> readers.
  std::map<std::string, std::set<std::string>> fan_out;  // view -> tables.
  for (const auto& [name, id] : node_ids) {
    (void)id;
    if (name.rfind("table ", 0) == 0) ++g.stats_.tables;
  }
  g.stats_.edges = g.edges_.size();
  for (const DepEdge& e : g.edges_) {
    if (e.kind == DepEdge::Kind::kReads) {
      fan_in[e.from].insert(e.to);
      fan_out[e.to].insert(e.from);
    } else if (e.kind == DepEdge::Kind::kIndexReads) {
      fan_in[e.from].insert(e.to);
    }
  }
  for (const auto& [table, readers] : fan_in) {
    if (readers.size() > g.stats_.max_fan_in) {
      g.stats_.max_fan_in = readers.size();
      g.stats_.max_fan_in_table = table;
    }
  }
  for (const auto& [view, tabs] : fan_out) {
    if (tabs.size() > g.stats_.max_fan_out) {
      g.stats_.max_fan_out = tabs.size();
      g.stats_.max_fan_out_view = view;
    }
  }

  FindCycles(node_ids, g.edges_, &g.stats_, &g.cycles_);

  // Unused tables: workload-referenced databases only, integration db (the
  // query surface) excluded, snapshot contents as ground truth.
  const std::string idb = ToLower(integration_db);
  for (const std::string& db_name : snap.DatabaseNames()) {
    const std::string db_key = ToLower(db_name);
    if (db_key == idb) continue;
    if (workload_dbs.count(db_key) == 0) continue;
    Result<const Database*> db = snap.GetDatabase(db_name);
    if (!db.ok()) continue;
    for (const std::string& rel : db.value()->TableNames()) {
      const std::string key = db_key + "::" + ToLower(rel);
      if (used_tables.count(key) == 0) g.unused_.push_back(key);
    }
  }
  std::sort(g.unused_.begin(), g.unused_.end());
  return g;
}

std::string DependencyGraph::Describe() const {
  std::string out;
  out += "nodes: " + std::to_string(stats_.tables) + " table(s), " +
         std::to_string(stats_.views) + " view(s), " +
         std::to_string(stats_.indexes) + " index(es); edges: " +
         std::to_string(stats_.edges) + "; cycles: " +
         std::to_string(stats_.cycles) + "\n";
  if (stats_.max_fan_in > 0) {
    out += "max fan-in: " + stats_.max_fan_in_table + " (" +
           std::to_string(stats_.max_fan_in) + " reader(s))\n";
  }
  if (stats_.max_fan_out > 0) {
    out += "max fan-out: " + stats_.max_fan_out_view + " (" +
           std::to_string(stats_.max_fan_out) + " table(s))\n";
  }
  for (const std::string& c : cycles_) {
    out += "cycle: " + c + "\n";
  }
  for (const DepEdge& e : edges_) {
    out += e.from;
    out += ' ';
    out += EdgeKindArrow(e.kind);
    out += ' ';
    out += e.to;
    if (!e.attributes.empty()) {
      out += " [";
      out += e.attributes;
      out += ']';
    }
    out += '\n';
  }
  return out;
}

}  // namespace dynview
