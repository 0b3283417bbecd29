// Cost-based physical planner for colored path bindings.
//
// The paper evaluated plans "chosen by hand to be the best" (Section 6.2);
// the evaluator's fixed pipeline encodes those hand choices. This planner
// closes the loop: each FLWOR binding's colored path is lowered to a small
// logical IR (BindingDesc / StepDesc / PredDesc — AST-free, so the planner
// stays below the mcx layer), costed against live database statistics
// (per-(color, tag) counts off the tag index, content/attribute-index
// selectivity probes) and the color-flow lattice estimates of PR 4, and a
// physical access method is chosen per step:
//
//   kBaseline       the fixed pipeline (tag scan + stack-tree merge, etc.)
//   kScanShortcut   descendant step off the lone document row: the tag scan
//                   *is* the result, skip the merge machinery
//   kIndexSeek      equality predicate pushed down into the content or
//                   attribute-value index: seek the candidate set first,
//                   then run the same interval merge over it
//   kNavDescendant  few input rows, small subtrees: navigate (pre-order
//                   walk) instead of scanning the whole tag stream
//
// plus cross-tree-join elision (when the next axis operator color-filters
// anyway). Step predicates always run in source order, minus the one an
// index seek consumed.
//
// Hard determinism contract: every plan alternative is result-identical —
// same rows, same order — to the fixed pipeline (tests/planner_test.cc
// enforces this differentially over both workload catalogs). The planner
// therefore only ever trades time, never answers.
//
// PlanCache caches, per statement text, the parsed AST + chosen plan
// (opaque payload, owned by the mcx layer) so repeated workload statements
// skip parse + plan entirely; a second map keyed by the literal-normalized
// statement ("..." and numeric literals replaced by `?`) reuses plan
// skeletons across statements that differ only in constants. Update
// statements invalidate the whole cache (statistics and contents changed).

#ifndef COLORFUL_XML_QUERY_PLANNER_H_
#define COLORFUL_XML_QUERY_PLANNER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "mct/color.h"

namespace mct {
class ResourceGovernor;
}

namespace mct::query {

/// Axes of the logical IR (mirrors mcx::Axis without depending on the AST).
enum class PlanAxis {
  kChild,
  kDescendant,
  kDescendantOrSelf,
  kParent,
  kAncestor,
  kSelf,
  kAttribute,
};

/// One step predicate, pre-digested for costing.
struct PredDesc {
  /// Positional predicate [N]: order-sensitive, blocks index-seek pushdown
  /// for the whole step.
  bool positional = false;
  /// Index-seekable equality shape, computed by the evaluator's shared
  /// literal-predicate matcher, so pushdown == the probe the fixed pipeline
  /// would run anyway, just hoisted before the expansion.
  enum class Seek { kNone, kChildContent, kAttr, kSelfContent };
  Seek seek = Seek::kNone;
  /// Live index hit count for the literal (content/attr index probe taken
  /// at plan time); -1 when unknown / not seekable.
  double est_matches = -1;
};

/// One location step of the logical IR, colors resolved.
struct StepDesc {
  PlanAxis axis = PlanAxis::kChild;
  ColorId color = 0;
  std::string tag;  // empty = any element
  /// The fixed pipeline inserts a cross-tree join before this step.
  bool color_change = false;
  /// The session's visibility mask hides this step's color: the evaluator
  /// empties it at runtime, so the planner must not spend an index seek or
  /// shortcut on it (and must not elide the cross-tree filter).
  bool masked = false;
  std::vector<PredDesc> preds;
  /// Color-flow lattice estimate of this step's output cardinality
  /// (absolute rows, pre-predicates); -1 when no schema flow is available.
  double flow_out = -1;
};

/// One for-binding's path.
struct BindingDesc {
  /// The context column holds the shared document node.
  bool doc_context = false;
  /// The context table is exactly the one seed row (uncorrelated binding
  /// from document()): the scan-shortcut plan becomes legal.
  bool single_row = false;
  double in_rows = 1;  // estimated context cardinality
  std::vector<StepDesc> steps;
};

enum class StepAccess { kBaseline, kScanShortcut, kIndexSeek, kNavDescendant };

/// kNavDescendant row guard: the planner considers navigation only for at
/// most this many estimated context rows, and the evaluator falls back to
/// the baseline merge when the actual context table is larger.
inline constexpr uint64_t kNavMaxRows = 64;

/// The physical choice for one step.
struct StepPlan {
  StepAccess access = StepAccess::kBaseline;
  /// Predicate consumed by kIndexSeek (index into StepDesc::preds), else -1.
  int seek_pred = -1;
  /// Skip the cross-tree join: the next axis operator drops rows lacking
  /// the color anyway (legal for child/descendant/parent/ancestor only).
  bool elide_cross_tree = false;
  double est_in = -1;      // estimated rows entering the step
  double est_expand = -1;  // estimated rows after the axis expansion
  double est_out = -1;     // estimated rows after this step's predicates
};

struct BindingPlan {
  std::vector<StepPlan> steps;
  double est_rows = -1;  // estimated binding output cardinality
};

/// The chosen plan for one statement: one BindingPlan per top-level FLWOR
/// binding, index-aligned (update selectors included).
struct StatementPlan {
  std::vector<BindingPlan> bindings;
  double cost_baseline = 0;  // cost-model units of the fixed pipeline
  double cost_chosen = 0;

  /// EXPLAIN PLAN text: one line per step with access method, estimates and
  /// the cost-model totals.
  std::string Describe() const;
};

/// Live statistics the cost model reads (implemented over MctDatabase by
/// the mcx layer; an interface so the planner links below it).
class StatsProvider {
 public:
  virtual ~StatsProvider() = default;
  /// Elements with `tag` in `color` (the tag index cardinality).
  virtual double TagCount(ColorId color, const std::string& tag) const = 0;
  /// Total nodes in `color`'s tree (navigation cost bound).
  virtual double ColorSize(ColorId color) const = 0;
};

/// Chooses a physical plan for the statement. Pure function of the IR and
/// the statistics; never fails (unknown structure degrades to kBaseline).
/// `governor` (optional) is checked once per binding: a statement whose
/// deadline already passed, or whose session was cancelled, skips costing
/// and returns the empty (all-baseline) plan — the evaluator surfaces the
/// governor's status before executing it.
StatementPlan PlanStatement(const std::vector<BindingDesc>& bindings,
                            const StatsProvider& stats,
                            ResourceGovernor* governor = nullptr);

/// Replaces string and standalone numeric literals with `?` — the plan-cache
/// parameterization key. Identifiers, tags, variables and colors survive.
std::string NormalizeStatement(std::string_view text);

/// Normalized-query plan cache. Two levels:
///  * exact: statement text -> opaque payload (parsed AST + plan, owned by
///    the caller layer) — a hit skips parse and plan entirely;
///  * skeleton: NormalizeStatement(text) -> StatementPlan — a hit after an
///    exact miss skips costing (the statement still parses once).
///
/// Epoch stamping (MVCC, DESIGN.md §14): entries are stamped with the
/// newest epoch that planned OR reused them, and a lookup at any epoch
/// hits — sound because every plan is result-identical to the fixed
/// pipeline (the determinism contract above) and re-validates its
/// preconditions at runtime, so a plan from an older snapshot can cost
/// time but never answers. That removes both the ordering-sensitive
/// blanket invalidation (a commit publishing epoch e+1 needs no cache
/// barrier) and the replan stampede a strict per-epoch cache would cause
/// after every commit. The stamp is a recency horizon for memory
/// pressure: Prune(min_epoch) drops entries not used since min_epoch.
///
/// Epoch 0 is the single-version embedded mode: entries are stamped 0 and
/// the evaluator calls Invalidate() after every applied update statement,
/// exactly the pre-MVCC contract. Thread-safe.
class PlanCache {
 public:
  struct Stats {
    uint64_t hits = 0;            // exact-level hits
    uint64_t misses = 0;          // exact-level misses
    uint64_t skeleton_hits = 0;   // plan-skeleton reuses after an exact miss
    uint64_t invalidations = 0;   // Invalidate() calls
  };

  /// `fingerprint` is the session's ColorMask fingerprint (0 = no mask).
  /// Plans are pruned against the mask, so a hit requires the entry's
  /// fingerprint to match exactly — unmasked sessions share the 0 slice,
  /// and no entry ever crosses tenants with different masks.
  std::shared_ptr<const void> LookupExact(const std::string& text,
                                          uint64_t epoch = 0,
                                          uint64_t fingerprint = 0);
  void InsertExact(const std::string& text, std::shared_ptr<const void> payload,
                   uint64_t epoch = 0, uint64_t fingerprint = 0);
  bool LookupSkeleton(const std::string& normalized, StatementPlan* out,
                      uint64_t epoch = 0, uint64_t fingerprint = 0);
  void InsertSkeleton(const std::string& normalized, const StatementPlan& plan,
                      uint64_t epoch = 0, uint64_t fingerprint = 0);
  void Invalidate();
  /// Drops every entry last used below `min_epoch` (memory cap, not a
  /// correctness barrier).
  void Prune(uint64_t min_epoch);

  Stats stats() const;
  size_t size() const;

 private:
  struct ExactEntry {
    std::shared_ptr<const void> payload;
    uint64_t epoch = 0;
    uint64_t fingerprint = 0;
  };
  struct SkeletonEntry {
    StatementPlan plan;
    uint64_t epoch = 0;
    uint64_t fingerprint = 0;
  };

  mutable std::mutex mu_;
  Stats stats_;
  std::unordered_map<std::string, ExactEntry> exact_;
  std::unordered_map<std::string, SkeletonEntry> skeletons_;
};

}  // namespace mct::query

#endif  // COLORFUL_XML_QUERY_PLANNER_H_
