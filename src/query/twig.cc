#include "query/twig.h"

#include "query/ops.h"

#include <algorithm>
#include <unordered_map>

#include "common/governor.h"
#include "common/strings.h"

namespace mct::query {

namespace {

std::string ColName(const TwigPattern& p, int i) {
  return StrFormat("#%d:%s", i, p.nodes[static_cast<size_t>(i)].tag.c_str());
}

struct StreamElem {
  uint64_t start, end;
  NodeId node;
};

// Sorted (by start) stream of one pattern node's tag.
std::vector<StreamElem> StreamOf(MctDatabase* db, ColorId color,
                                 const std::string& tag,
                                 query::ExecStats* stats) {
  std::vector<StreamElem> out;
  ColoredTree* t = db->tree(color);
  t->EnsureLabels();
  for (NodeId n : db->TagScan(color, tag)) {  // start order
    out.push_back(StreamElem{t->Start(n), t->End(n), n});
  }
  if (stats != nullptr) stats->rows_scanned += out.size();
  return out;
}

// The PathStackJoin merge pass: one document-order scan over every
// stream, emitting each solution when its leaf is pushed. Appends rows to
// `out`; stops early on a governor trip.
void PathStackMerge(const TwigPattern& pattern,
                    const std::vector<std::vector<StreamElem>>& streams,
                    const ColoredTree* t, ResourceGovernor* gov, Table* out) {
  const int k = static_cast<int>(pattern.nodes.size());

  struct Entry {
    StreamElem e;
    int parent_top;  // index of S_{i-1}'s top when pushed (-1 when i == 0)
  };
  std::vector<std::vector<Entry>> stacks(static_cast<size_t>(k));
  std::vector<size_t> cursor(static_cast<size_t>(k), 0);

  bool stopped = false;
  std::vector<NodeId> partial(static_cast<size_t>(k));
  auto emit_row_ok = [&]() -> bool {
    out->AppendRow(partial);
    if (gov != nullptr && (out->num_rows() & 1023) == 0 &&
        (gov->ShouldStop() ||
         gov->ChargeOrStop(1024 * static_cast<uint64_t>(k) *
                           sizeof(NodeId)))) {
      return false;
    }
    return true;
  };

  // Emits every solution ending at the just-pushed leaf entry.
  auto expand = [&](auto&& self, int level, int max_idx) -> void {
    if (stopped) return;
    if (level < 0) {
      if (!emit_row_ok()) stopped = true;
      return;
    }
    for (int idx = 0; idx <= max_idx && !stopped; ++idx) {
      const Entry& entry = stacks[static_cast<size_t>(level)]
                                 [static_cast<size_t>(idx)];
      // Child-axis edges are verified against the parent pointer; the
      // stacks only guarantee ancestorship.
      if (level + 1 < k &&
          pattern.nodes[static_cast<size_t>(level + 1)].child_axis) {
        NodeId below = partial[static_cast<size_t>(level + 1)];
        if (t->Parent(below) != entry.e.node) continue;
      }
      partial[static_cast<size_t>(level)] = entry.e.node;
      self(self, level - 1, entry.parent_top);
    }
  };

  uint64_t iters = 0;
  const size_t leaf_end = streams[static_cast<size_t>(k - 1)].size();
  while (cursor[static_cast<size_t>(k - 1)] < leaf_end) {
    if (gov != nullptr &&
        (stopped || ((++iters & 1023) == 0 && gov->ShouldStop()))) {
      break;
    }
    // qmin: the stream whose next element has the smallest start.
    int qmin = -1;
    uint64_t min_start = ~0ULL;
    for (int i = 0; i < k; ++i) {
      if (cursor[static_cast<size_t>(i)] >=
          streams[static_cast<size_t>(i)].size()) {
        continue;
      }
      uint64_t s =
          streams[static_cast<size_t>(i)][cursor[static_cast<size_t>(i)]]
              .start;
      if (s < min_start) {
        min_start = s;
        qmin = i;
      }
    }
    if (qmin < 0) break;
    const StreamElem& e =
        streams[static_cast<size_t>(qmin)][cursor[static_cast<size_t>(qmin)]];
    // Clean every stack of entries that cannot contain e (or anything
    // after it).
    for (auto& s : stacks) {
      while (!s.empty() && s.back().e.end < e.start) s.pop_back();
    }
    // Push when the chain above is extendable. The linked ancestor entry
    // must contain e *strictly* (start < e.start): with a tag repeated
    // along the pattern (a//a) the same element sits on both stacks and
    // must not chain to itself.
    int ptr = -1;
    if (qmin > 0) {
      const auto& above = stacks[static_cast<size_t>(qmin - 1)];
      ptr = static_cast<int>(above.size()) - 1;
      while (ptr >= 0 &&
             above[static_cast<size_t>(ptr)].e.start >= e.start) {
        --ptr;
      }
    }
    if (qmin == 0 || ptr >= 0) {
      stacks[static_cast<size_t>(qmin)].push_back(Entry{e, ptr});
      if (qmin == k - 1) {
        partial[static_cast<size_t>(k - 1)] = e.node;
        expand(expand, k - 2,
               stacks[static_cast<size_t>(qmin)].back().parent_top);
        stacks[static_cast<size_t>(qmin)].pop_back();  // leaves never nest usefully
      }
    }
    cursor[static_cast<size_t>(qmin)]++;
  }
}

}  // namespace

bool TwigPattern::IsPath() const {
  std::vector<int> fanout(nodes.size(), 0);
  for (const TwigNode& n : nodes) {
    if (n.parent >= 0) fanout[static_cast<size_t>(n.parent)]++;
  }
  for (int f : fanout) {
    if (f > 1) return false;
  }
  return true;
}

std::vector<std::vector<int>> TwigPattern::RootToLeafPaths() const {
  std::vector<std::vector<int>> kids(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].parent >= 0) {
      kids[static_cast<size_t>(nodes[i].parent)].push_back(
          static_cast<int>(i));
    }
  }
  std::vector<std::vector<int>> paths;
  std::vector<int> cur;
  // DFS from node 0.
  struct Frame {
    int node;
    size_t next_kid;
  };
  std::vector<Frame> stack{{0, 0}};
  cur.push_back(0);
  while (!stack.empty()) {
    Frame& f = stack.back();
    auto& k = kids[static_cast<size_t>(f.node)];
    if (k.empty() && f.next_kid == 0) {
      paths.push_back(cur);
      ++f.next_kid;  // mark leaf done
      stack.pop_back();
      cur.pop_back();
      continue;
    }
    if (f.next_kid < k.size()) {
      int child = k[f.next_kid++];
      stack.push_back({child, 0});
      cur.push_back(child);
    } else {
      stack.pop_back();
      cur.pop_back();
    }
  }
  return paths;
}

Result<Table> PathStackJoin(MctDatabase* db, ColorId color,
                            const TwigPattern& pattern, const ExecContext& ctx) {
  if (!pattern.IsPath()) {
    return Status::InvalidArgument("PathStackJoin requires a path pattern");
  }
  if (pattern.nodes.empty()) {
    return Status::InvalidArgument("empty twig pattern");
  }
  if (ctx.stats != nullptr) ++ctx.stats->structural_joins;  // one holistic join
  const int k = static_cast<int>(pattern.nodes.size());

  Table out;
  for (int i = 0; i < k; ++i) out.vars.push_back(ColName(pattern, i));
  out.cols.resize(out.vars.size());

  // Streams in pattern order (node 0 is the path root).
  std::vector<std::vector<StreamElem>> streams;
  for (int i = 0; i < k; ++i) {
    streams.push_back(
        StreamOf(db, color, pattern.nodes[static_cast<size_t>(i)].tag,
                 ctx.stats));
    if (streams.back().empty()) return out;  // some tag never occurs
  }
  ResourceGovernor* gov = ctx.governor;
  PathStackMerge(pattern, streams, db->tree(color), gov, &out);
  // A governed abort must never surface its truncated table as a result.
  if (gov != nullptr && gov->tripped()) return gov->status();
  return out;
}

Result<Table> TwigStackJoin(MctDatabase* db, ColorId color,
                            const TwigPattern& pattern, const ExecContext& ctx) {
  if (pattern.nodes.empty()) {
    return Status::InvalidArgument("empty twig pattern");
  }
  auto paths = pattern.RootToLeafPaths();
  // Solve each root-to-leaf path holistically.
  std::vector<Table> tables;
  for (const auto& path : paths) {
    TwigPattern sub;
    for (size_t j = 0; j < path.size(); ++j) {
      const TwigNode& n = pattern.nodes[static_cast<size_t>(path[j])];
      sub.Add(static_cast<int>(j) - 1, n.tag, n.child_axis);
    }
    MCT_ASSIGN_OR_RETURN(Table t, PathStackJoin(db, color, sub, ctx));
    // Rename columns back to the global pattern indices.
    for (size_t j = 0; j < path.size(); ++j) {
      t.vars[j] = ColName(pattern, path[j]);
    }
    tables.push_back(std::move(t));
  }
  // Merge path solutions on their shared columns.
  Table acc = std::move(tables[0]);
  for (size_t pi = 1; pi < tables.size(); ++pi) {
    Table& right = tables[pi];
    // Columns shared with acc (by name) and right-only columns.
    std::vector<int> shared_l, shared_r, extra_r;
    for (size_t j = 0; j < right.vars.size(); ++j) {
      int li = acc.ColumnOf(right.vars[j]);
      if (li >= 0) {
        shared_l.push_back(li);
        shared_r.push_back(static_cast<int>(j));
      } else {
        extra_r.push_back(static_cast<int>(j));
      }
    }
    auto key_of = [](const Table& t, size_t row,
                     const std::vector<int>& cols) {
      std::string key;
      for (int c : cols) {
        NodeId v = t.At(row, c);
        key.append(reinterpret_cast<const char*>(&v), sizeof(NodeId));
      }
      return key;
    };
    // Join scratch (string keys + row-index vectors, ~64 bytes/entry).
    if (ctx.governor != nullptr) {
      MCT_RETURN_IF_ERROR(ctx.governor->Charge(right.num_rows() * 64));
    }
    std::unordered_map<std::string, std::vector<uint32_t>> ht;
    for (size_t i = 0; i < right.num_rows(); ++i) {
      ht[key_of(right, i, shared_r)].push_back(static_cast<uint32_t>(i));
    }
    std::vector<std::string> merged_vars = acc.vars;
    for (int c : extra_r) {
      merged_vars.push_back(right.vars[static_cast<size_t>(c)]);
    }
    Table merged = Table::WithVars(std::move(merged_vars));
    // Collect matching (acc row, right row) pairs, then materialize both
    // sides with column-at-a-time gathers.
    std::vector<uint32_t> li, ri;
    for (size_t i = 0; i < acc.num_rows(); ++i) {
      if (ctx.governor != nullptr && (i & 1023) == 0) {
        MCT_RETURN_IF_ERROR(ctx.governor->Check());
      }
      auto it = ht.find(key_of(acc, i, shared_l));
      if (it == ht.end()) continue;
      for (uint32_t r : it->second) {
        li.push_back(static_cast<uint32_t>(i));
        ri.push_back(r);
      }
    }
    const size_t acc_cols = acc.num_cols();
    // Merged output buffers (Table::GatherInto has no ExecContext, so
    // the charge happens here).
    if (ctx.governor != nullptr) {
      MCT_RETURN_IF_ERROR(ctx.governor->Charge(
          li.size() * merged.num_cols() * sizeof(NodeId)));
    }
    Table::GatherInto(acc, li, &merged, 0);
    // Project the right side down to its extra columns first (a column
    // move, no cell copies), so the gather touches only those.
    Table rex = Project(std::move(right), extra_r);
    Table::GatherInto(rex, ri, &merged, acc_cols);
    acc = std::move(merged);
  }
  // Normalize column order to pattern index order.
  std::vector<int> order;
  for (size_t i = 0; i < pattern.nodes.size(); ++i) {
    order.push_back(acc.ColumnOf(ColName(pattern, static_cast<int>(i))));
  }
  return Project(std::move(acc), order);
}

}  // namespace mct::query
