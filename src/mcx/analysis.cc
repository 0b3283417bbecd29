#include "mcx/analysis.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "common/strings.h"
#include "mcx/printer.h"

namespace mct::mcx {

namespace {

std::string RenderStep(const PathStep& step, const std::string& color) {
  std::string s = color.empty() ? "" : "{" + color + "}";
  s += AxisName(step.axis);
  s += "::";
  s += step.tag.empty() ? "*" : step.tag;
  return s;
}

std::string RenderFlow(const FlowSet& f) {
  if (f.empty()) return "{}";
  std::string s = "{";
  bool first = true;
  for (const std::string& p : f.Render()) {
    if (!first) s += ", ";
    first = false;
    s += p;
  }
  s += "}";
  return s;
}

/// Three-valued truth for predicate / where folding (MCX102).
enum class Truth { kFalse, kTrue, kUnknown };

/// The value category the analyzer tracks for an expression: a node flow
/// (possibly tainted by an earlier diagnostic) or an atomic value.
///
/// With an active visibility mask the analyzer runs two lattices in
/// lockstep: `flow` is filtered to mask-visible colors after every step
/// (mirroring the evaluator's per-step enforcement), while `unmasked`
/// ignores the mask. Divergence between the two is exactly the MCX2xx
/// signal: masked-empty + unmasked-nonempty = MCX201; shared colors of a
/// join all invisible = MCX203. Without a mask the two are identical.
struct AbstractValue {
  FlowSet flow;
  FlowSet unmasked;
  bool atomic = false;
  bool tainted = false;
};

class Analyzer {
 public:
  Analyzer(const ParsedQuery& q, const AnalyzeOptions& opts)
      : q_(q), opts_(opts), graph_(opts.schema) {
    report_.default_color = opts.default_color;
  }

  AnalysisReport Run() {
    if (q_.is_update) {
      AnalyzeUpdate();
    } else if (q_.root != nullptr) {
      AbstractValue v = AnalyzeExpr(*q_.root, DocumentValue());
      MaybeWarnStructuralLeak(v, q_.root->span);
    }
    return std::move(report_);
  }

 private:
  struct VarInfo {
    AbstractValue value;
  };

  AbstractValue DocumentValue() const {
    AbstractValue v;
    // The shared document node carries every color and is visible to every
    // session, so the mask does not filter it.
    v.flow = FlowSet::Document(graph_.schema().colors());
    v.unmasked = v.flow;
    return v;
  }

  /// Drops lattice points whose color is outside the read mask (the
  /// document node is exempt: it is shared across all sessions). Identity
  /// when no mask is active.
  FlowSet FilterVisible(const FlowSet& in) const {
    if (!opts_.mask.active) return in;
    FlowSet out;
    for (const auto& [tc, est] : in.points()) {
      if (tc.type == kDocumentType || opts_.mask.CanRead(tc.color)) {
        out.Add(tc, est);
      }
    }
    return out;
  }

  void Diag(const std::string& code, Severity sev, const SourceSpan& span,
            std::string message) {
    Diagnostic d;
    d.code = code;
    d.severity = sev;
    d.span = span;
    if (!q_.source.empty() && span.valid()) {
      LineCol lc = ResolveLineCol(q_.source, span.begin);
      d.line = lc.line;
      d.col = lc.col;
    }
    d.message = std::move(message);
    report_.diagnostics.push_back(std::move(d));
  }

  std::string ResolveColor(const std::string& c) const {
    return c.empty() ? opts_.default_color : c;
  }

  // ---- paths -------------------------------------------------------------

  AbstractValue AnalyzePath(const PathExpr& path, const AbstractValue& ctx,
                            const SourceSpan& path_span) {
    AbstractValue cur;
    if (path.from_document) {
      cur = DocumentValue();
    } else if (!path.start_var.empty()) {
      const VarInfo* vi = Lookup(path.start_var);
      if (vi == nullptr) {
        Diag("MCX005", Severity::kError, path_span,
             "unbound variable " + path.start_var);
        cur.tainted = true;
      } else {
        cur = vi->value;
      }
    } else {
      cur = ctx;  // context-relative path (inside a predicate)
    }

    for (const PathStep& step : path.steps) {
      cur = AnalyzeStep(step, cur);
    }
    return cur;
  }

  FlowSet Transfer(Axis axis, const FlowSet& in, const std::string& tag) const {
    switch (axis) {
      case Axis::kChild:
        return graph_.Child(in, tag);
      case Axis::kDescendant:
        return graph_.Descendant(in, tag);
      case Axis::kDescendantOrSelf:
        return graph_.DescendantOrSelf(in, tag);
      case Axis::kParent:
        return graph_.Parent(in, tag);
      case Axis::kAncestor:
        return graph_.Ancestor(in, tag);
      case Axis::kSelf:
        return graph_.Self(in, tag);
      case Axis::kAttribute:
        break;  // handled by the caller
    }
    return FlowSet();
  }

  AbstractValue AnalyzeStep(const PathStep& step, AbstractValue in) {
    const SourceSpan& span = step.span;

    if (step.axis == Axis::kAttribute) {
      // Attributes are not part of the schema's color grammar: the step
      // yields an atomic value; the node flow ends here.
      AnalyzePredicates(step, in);
      AbstractValue out;
      out.atomic = true;
      out.tainted = in.tainted;
      report_.flow.push_back("@" + step.tag + " -> (atomic)");
      return out;
    }

    // Color resolution mirrors the evaluator: an explicit {color} forces a
    // cross-tree transition; an uncolored step inherits the color(s) the
    // flow is already in (EvalRelPath semantics), except off the document
    // node, where the statement default applies. Resolution consults the
    // unmasked flow so that masked and unmasked lattices agree on it.
    std::string color = step.color;
    if (color.empty() && in.unmasked.IsDocumentOnly()) {
      color = opts_.default_color;
    }

    if (!color.empty() && !graph_.KnownColor(color)) {
      Diag("MCX001", Severity::kError, span,
           "unknown color '" + color + "' (schema colors: " + ColorList() +
               ")");
      in.flow = FlowSet();
      in.unmasked = FlowSet();
      in.tainted = true;
      return in;
    }
    if (!step.tag.empty() && !graph_.KnownType(step.tag)) {
      Diag("MCX002", Severity::kError, span,
           "unknown element name '" + step.tag +
               "' in node test: no element type with that name in the "
               "schema");
      in.flow = FlowSet();
      in.unmasked = FlowSet();
      in.tainted = true;
      return in;
    }

    // MCX200: the statement *names* a color the session cannot read.
    // MCX201: the step never names one, but the only color it can resolve
    // to (the statement default, inherited off the document) is invisible —
    // the mask-filtered lattice state is empty before the step runs.
    // Either way the flow is dead; taint so downstream steps don't cascade.
    if (opts_.mask.active && !color.empty() && !opts_.mask.CanRead(color)) {
      if (!step.color.empty()) {
        Diag("MCX200", Severity::kError, span,
             "color '" + color +
                 "' is outside the session's visibility mask");
      } else {
        Diag("MCX201", Severity::kError, span,
             "step " + RenderStep(step, color) +
                 " is reachable only through the statement default color '" +
                 color + "', which is outside the visibility mask");
      }
      in.flow = FlowSet();
      in.unmasked = FlowSet();
      in.tainted = true;
      return in;
    }

    const bool had_input = !in.unmasked.empty();
    FlowSet shifted_u =
        color.empty() ? in.unmasked : graph_.Recolor(in.unmasked, color);
    FlowSet out_unmasked = Transfer(step.axis, shifted_u, step.tag);

    FlowSet out;
    if (opts_.mask.active) {
      FlowSet shifted =
          color.empty() ? in.flow : graph_.Recolor(in.flow, color);
      out = FilterVisible(Transfer(step.axis, shifted, step.tag));
    } else {
      out = out_unmasked;
    }

    report_.flow.push_back(
        StrFormat("%s -> %s est~%.4g", RenderStep(step, color).c_str(),
                  RenderFlow(out).c_str(), out.TotalEstimate()));

    AbstractValue result;
    result.flow = out;
    result.unmasked = out_unmasked;
    result.tainted = in.tainted;

    if (out_unmasked.empty() && had_input && !in.tainted) {
      std::string why;
      if (shifted_u.empty()) {
        why = ": no element type reaching this step carries color '" + color +
              "'";
      }
      Diag("MCX003", Severity::kError, span,
           "statically empty step " + RenderStep(step, color) +
               ": the schema admits no matching (type, color) pair" + why);
      result.tainted = true;  // suppress cascading MCX003 downstream
      return result;
    }

    // MCX201: the schema reaches this step, but only through colors the
    // mask hides — at runtime the enforcement layer filters every binding,
    // so the step is empty for this session.
    if (opts_.mask.active && out.empty() && !out_unmasked.empty() &&
        !in.tainted && !in.flow.empty()) {
      Diag("MCX201", Severity::kError, span,
           "step " + RenderStep(step, color) +
               " is reachable only through colors outside the visibility "
               "mask (unmasked flow " +
               RenderFlow(out_unmasked) + ")");
      result.tainted = true;
      return result;
    }

    if (!result.tainted &&
        out.TotalEstimate() > opts_.blowup_threshold) {
      Diag("MCX103", Severity::kWarning, span,
           StrFormat("step %s has estimated cardinality %.3g (threshold "
                     "%.3g): quant(e,c) statistics imply a blowup",
                     RenderStep(step, color).c_str(), out.TotalEstimate(),
                     opts_.blowup_threshold));
    }

    AnalyzePredicates(step, result);
    return result;
  }

  void AnalyzePredicates(const PathStep& step, const AbstractValue& ctx) {
    for (const ExprPtr& pred : step.predicates) {
      if (pred == nullptr) continue;
      // Positional predicate: a bare number literal [N].
      if (pred->kind == Expr::Kind::kNumber) {
        const double n = pred->num;
        if (!ctx.tainted && n >= 2 && std::floor(n) == n &&
            step.axis != Axis::kAttribute) {
          int bound = graph_.MaxOccurs(ctx.flow);
          if (bound == 1) {
            Diag("MCX104", Severity::kWarning, pred->span,
                 StrFormat("positional predicate [%d] exceeds the schema's "
                           "quantifier bound (at most 1 occurrence per "
                           "parent)",
                           static_cast<int>(n)));
          }
        }
        continue;
      }
      Truth t = AnalyzeBool(*pred, ctx);
      if (t == Truth::kFalse && !ctx.tainted) {
        Diag("MCX102", Severity::kWarning, pred->span,
             "predicate always evaluates to false");
      }
    }
  }

  // ---- boolean / comparison folding --------------------------------------

  /// Literal constant of an expression, if it has one.
  struct Constant {
    bool is_string = false;
    bool is_number = false;
    std::string str;
    double num = 0;
  };

  static Constant ConstOf(const Expr& e) {
    Constant c;
    if (e.kind == Expr::Kind::kString) {
      c.is_string = true;
      c.str = e.str;
    } else if (e.kind == Expr::Kind::kNumber) {
      c.is_number = true;
      c.num = e.num;
    }
    return c;
  }

  static Truth FoldCompare(CmpOp op, double a, double b) {
    bool r = false;
    switch (op) {
      case CmpOp::kEq:
        r = a == b;
        break;
      case CmpOp::kNe:
        r = a != b;
        break;
      case CmpOp::kLt:
        r = a < b;
        break;
      case CmpOp::kLe:
        r = a <= b;
        break;
      case CmpOp::kGt:
        r = a > b;
        break;
      case CmpOp::kGe:
        r = a >= b;
        break;
    }
    return r ? Truth::kTrue : Truth::kFalse;
  }

  Truth AnalyzeBool(const Expr& e, const AbstractValue& ctx) {
    switch (e.kind) {
      case Expr::Kind::kAnd: {
        Truth out = Truth::kTrue;
        for (const ExprPtr& c : e.children) {
          Truth t = AnalyzeBool(*c, ctx);
          if (t == Truth::kFalse) out = Truth::kFalse;
          if (t == Truth::kUnknown && out != Truth::kFalse)
            out = Truth::kUnknown;
        }
        return out;
      }
      case Expr::Kind::kOr: {
        Truth out = Truth::kFalse;
        for (const ExprPtr& c : e.children) {
          Truth t = AnalyzeBool(*c, ctx);
          if (t == Truth::kTrue) out = Truth::kTrue;
          if (t == Truth::kUnknown && out != Truth::kTrue)
            out = Truth::kUnknown;
        }
        return out;
      }
      case Expr::Kind::kCompare: {
        if (e.children.size() != 2) return Truth::kUnknown;
        const Expr& lhs = *e.children[0];
        const Expr& rhs = *e.children[1];
        AbstractValue lv = AnalyzeOperand(lhs, ctx);
        AbstractValue rv = AnalyzeOperand(rhs, ctx);
        CheckCrossTreeJoin(lhs, lv, rhs, rv, e.span);
        Constant lc = ConstOf(lhs);
        Constant rc = ConstOf(rhs);
        if (lc.is_number && rc.is_number) {
          return FoldCompare(e.cmp, lc.num, rc.num);
        }
        if (lc.is_string && rc.is_string) {
          int c = lc.str.compare(rc.str);
          return FoldCompare(e.cmp, static_cast<double>(c), 0.0);
        }
        return Truth::kUnknown;
      }
      case Expr::Kind::kContains: {
        if (e.children.size() == 2) {
          AnalyzeOperand(*e.children[0], ctx);
          AnalyzeOperand(*e.children[1], ctx);
          Constant a = ConstOf(*e.children[0]);
          Constant b = ConstOf(*e.children[1]);
          if (a.is_string && b.is_string) {
            return a.str.find(b.str) != std::string::npos ? Truth::kTrue
                                                          : Truth::kFalse;
          }
        }
        return Truth::kUnknown;
      }
      default:
        AnalyzeOperand(e, ctx);
        return Truth::kUnknown;
    }
  }

  AbstractValue AnalyzeOperand(const Expr& e, const AbstractValue& ctx) {
    switch (e.kind) {
      case Expr::Kind::kPath:
        return AnalyzePath(e.path, ctx, e.span);
      case Expr::Kind::kVarRef: {
        const VarInfo* vi = Lookup(e.str);
        if (vi == nullptr) {
          Diag("MCX005", Severity::kError, e.span,
               "unbound variable " + e.str);
          AbstractValue v;
          v.tainted = true;
          return v;
        }
        return vi->value;
      }
      case Expr::Kind::kCount:
      case Expr::Kind::kDistinctValues: {
        for (const ExprPtr& c : e.children) {
          if (c != nullptr) AnalyzeOperand(*c, ctx);
        }
        AbstractValue v;
        v.atomic = true;
        return v;
      }
      default:
        return AnalyzeExpr(e, ctx);
    }
  }

  /// MCX101: a comparison whose two operands are node flows in disjoint
  /// color sets is a cross-tree join the engine cannot satisfy from shared
  /// subtrees (and, with value semantics, very likely unintended).
  /// MCX203: the join's only bridges are invisible — either the operands
  /// share colors but every shared color is masked, or they share none and
  /// the sole color both operand types also carry is masked. Both cases
  /// reveal correlations through a hierarchy the session must not see.
  void CheckCrossTreeJoin(const Expr& lhs, const AbstractValue& lv,
                          const Expr& rhs, const AbstractValue& rv,
                          const SourceSpan& span) {
    if (lv.tainted || rv.tainted || lv.atomic || rv.atomic) return;
    if (lhs.kind != Expr::Kind::kPath || rhs.kind != Expr::Kind::kPath)
      return;
    if (lv.unmasked.empty() || rv.unmasked.empty()) return;
    bool share_visible = false;
    bool share_any = false;
    for (const auto& [tc, _] : lv.unmasked.points()) {
      if (!rv.unmasked.ContainsColor(tc.color)) continue;
      share_any = true;
      if (opts_.mask.CanRead(tc.color)) {
        share_visible = true;
        break;
      }
    }
    if (share_visible) return;
    if (share_any) {
      // Only reachable with an active mask: without one CanRead is
      // always true, so any shared color sets share_visible.
      Diag("MCX203", Severity::kError, span,
           "cross-tree join bridges only through colors outside the "
           "visibility mask: " +
               RenderFlow(lv.unmasked) + " vs " + RenderFlow(rv.unmasked));
      return;
    }
    // No shared color at all — but with a mask, check whether a *hidden*
    // color bridges the join: both operand types also carry some masked
    // color, so the rows satisfying the join at runtime may be exactly the
    // shared nodes of that masked hierarchy. Evaluating it would reveal
    // correlations through structure the session must not see — an error,
    // where the plain disjoint case is only the MCX101 warning.
    if (opts_.mask.active) {
      for (const std::string& c : graph_.schema().colors()) {
        if (opts_.mask.CanRead(c)) continue;
        if (!graph_.Recolor(lv.unmasked, c).empty() &&
            !graph_.Recolor(rv.unmasked, c).empty()) {
          Diag("MCX203", Severity::kError, span,
               "cross-tree join " + RenderFlow(lv.unmasked) + " vs " +
                   RenderFlow(rv.unmasked) +
                   " bridges only through the masked color '" + c + "'");
          return;
        }
      }
    }
    Diag("MCX101", Severity::kWarning, span,
         "comparison joins across colored trees with no shared color: " +
             RenderFlow(lv.unmasked) + " vs " + RenderFlow(rv.unmasked));
  }

  /// MCX204 (warn): some element type in the result also carries a color
  /// outside the mask — the returned nodes may be the very nodes a masked
  /// sibling hierarchy is built from, so their existence, identity, and
  /// content leak structural context of that hierarchy.
  void MaybeWarnStructuralLeak(const AbstractValue& v, const SourceSpan& span) {
    if (!opts_.mask.active || v.tainted || v.atomic) return;
    if (v.flow.empty() || v.flow.IsDocumentOnly()) return;
    for (const std::string& c : graph_.schema().colors()) {
      if (opts_.mask.CanRead(c)) continue;
      FlowSet shared = graph_.Recolor(v.flow, c);
      if (!shared.empty() && !shared.IsDocumentOnly()) {
        Diag("MCX204", Severity::kWarning, span,
             "result nodes of flow " + RenderFlow(v.flow) +
                 " are shared with the masked color '" + c +
                 "': node identity may leak structural context of that "
                 "hierarchy");
        return;
      }
    }
  }

  // ---- expressions -------------------------------------------------------

  AbstractValue AnalyzeExpr(const Expr& e, const AbstractValue& ctx) {
    switch (e.kind) {
      case Expr::Kind::kPath:
        return AnalyzePath(e.path, ctx, e.span);
      case Expr::Kind::kString:
      case Expr::Kind::kNumber:
      case Expr::Kind::kText: {
        AbstractValue v;
        v.atomic = true;
        return v;
      }
      case Expr::Kind::kVarRef:
        return AnalyzeOperand(e, ctx);
      case Expr::Kind::kCompare:
      case Expr::Kind::kAnd:
      case Expr::Kind::kOr:
      case Expr::Kind::kContains: {
        AnalyzeBool(e, ctx);
        AbstractValue v;
        v.atomic = true;
        return v;
      }
      case Expr::Kind::kDistinctValues:
      case Expr::Kind::kCount:
        return AnalyzeOperand(e, ctx);
      case Expr::Kind::kFLWOR:
        return AnalyzeFlwor(e, ctx);
      case Expr::Kind::kElement: {
        for (const ExprPtr& c : e.children) {
          if (c != nullptr) AnalyzeExpr(*c, ctx);
        }
        // A constructor yields a fresh node outside any schema color.
        AbstractValue v;
        return v;
      }
      case Expr::Kind::kCreateColor: {
        // createColor writes a (possibly new) color: an allow-list mask
        // that does not name it refuses the write.
        if (opts_.mask.active && !opts_.mask.CanWrite(e.str)) {
          Diag("MCX202", Severity::kError, e.span,
               "createColor targets color '" + e.str +
                   "', which is outside the session's write mask");
        }
        if (e.children.size() == 1 && e.children[0] != nullptr) {
          AnalyzeExpr(*e.children[0], ctx);
          CheckDuplicateIdentity(*e.children[0], e.str, e.span);
        }
        return AbstractValue{};
      }
      case Expr::Kind::kCreateCopy:
      case Expr::Kind::kSequence: {
        for (const ExprPtr& c : e.children) {
          if (c != nullptr) AnalyzeExpr(*c, ctx);
        }
        return AbstractValue{};
      }
    }
    return AbstractValue{};
  }

  AbstractValue AnalyzeFlwor(const Expr& e, const AbstractValue& ctx) {
    const size_t scope_mark = scopes_.size();
    for (const Binding& b : e.bindings) {
      AnalyzeBinding(b, ctx);
    }
    if (e.where != nullptr) {
      Truth t = AnalyzeBool(*e.where, ctx);
      if (t == Truth::kFalse) {
        Diag("MCX102", Severity::kWarning, e.where->span,
             "where clause always evaluates to false");
      }
    }
    if (e.order_by != nullptr) AnalyzeOperand(*e.order_by, ctx);
    AbstractValue ret;
    if (e.ret != nullptr) ret = AnalyzeExpr(*e.ret, ctx);
    scopes_.resize(scope_mark);
    return ret;
  }

  void AnalyzeBinding(const Binding& b, const AbstractValue& ctx) {
    AbstractValue v;
    if (b.expr != nullptr) v = AnalyzeOperand(*b.expr, ctx);
    scopes_.emplace_back(b.var, VarInfo{std::move(v)});
  }

  // ---- duplicate-node detection (MCX004) ---------------------------------

  /// Collects the identity-preserving sources attached by a constructor
  /// tree: bare variable references and variable-rooted paths, keyed by a
  /// canonical rendering. Two occurrences of the same key in one
  /// createColor / insert provably attach the same node twice into one
  /// colored tree — the paper's Section 4.2 duplicate-node dynamic error.
  void CollectIdentitySources(const Expr& e,
                              std::map<std::string, int>* counts) const {
    switch (e.kind) {
      case Expr::Kind::kVarRef:
        ++(*counts)[e.str];
        return;
      case Expr::Kind::kPath:
        if (!e.path.start_var.empty()) {
          std::string key = e.path.start_var;
          for (const PathStep& s : e.path.steps) {
            if (s.axis == Axis::kAttribute) return;  // atomic, not a node
            key += "/" + std::string(AxisName(s.axis)) + "::" +
                   (s.tag.empty() ? "*" : s.tag);
            if (!s.color.empty()) key += "{" + s.color + "}";
            if (!s.predicates.empty()) return;  // may select disjoint sets
          }
          ++(*counts)[key];
        }
        return;
      case Expr::Kind::kElement:
      case Expr::Kind::kSequence:
        for (const ExprPtr& c : e.children) {
          if (c != nullptr) CollectIdentitySources(*c, counts);
        }
        return;
      case Expr::Kind::kFLWOR:      // per-iteration nodes differ
      case Expr::Kind::kCreateCopy:  // fresh copies, identity broken
      default:
        return;
    }
  }

  void CheckDuplicateIdentity(const Expr& content, const std::string& color,
                              const SourceSpan& span) {
    std::map<std::string, int> counts;
    CollectIdentitySources(content, &counts);
    for (const auto& [key, n] : counts) {
      if (n > 1) {
        Diag("MCX004", Severity::kError, span,
             StrFormat("duplicate-node error: %s occurs %d times in content "
                       "attached to color '%s' — the same node cannot appear "
                       "twice in one colored tree (Section 4.2)",
                       key.c_str(), n, color.c_str()));
      }
    }
  }

  // ---- updates -----------------------------------------------------------

  void AnalyzeUpdate() {
    AbstractValue doc = DocumentValue();
    for (const Binding& b : q_.bindings) {
      AnalyzeBinding(b, doc);
    }
    if (q_.where != nullptr) {
      Truth t = AnalyzeBool(*q_.where, doc);
      if (t == Truth::kFalse) {
        Diag("MCX102", Severity::kWarning, q_.where->span,
             "where clause always evaluates to false");
      }
    }

    const VarInfo* target = Lookup(q_.target_var);
    AbstractValue tv;
    if (target == nullptr) {
      Diag("MCX005", Severity::kError, q_.target_span,
           "unbound update target variable " + q_.target_var);
      tv.tainted = true;
    } else {
      tv = target->value;
    }

    for (const UpdateAction& a : q_.actions) {
      AnalyzeAction(a, tv);
    }
  }

  void AnalyzeAction(const UpdateAction& a, const AbstractValue& target) {
    const std::string color = ResolveColor(a.color);
    if (!graph_.KnownColor(color)) {
      Diag("MCX001", Severity::kError, a.span,
           "unknown color '" + color + "' in update action (schema colors: " +
               ColorList() + ")");
      return;
    }

    // MCX202: every update action (insert / delete / replace) mutates the
    // named colored tree, so it needs that color in the write mask.
    if (opts_.mask.active && !opts_.mask.CanWrite(color)) {
      Diag("MCX202", Severity::kError, a.span,
           "update action targets color '" + color +
               "', which is outside the session's write mask");
      return;
    }

    FlowSet in_color = graph_.Recolor(target.unmasked, color);
    const bool target_reaches_color =
        target.tainted || target.unmasked.empty() || !in_color.empty();

    switch (a.kind) {
      case UpdateAction::Kind::kInsert: {
        if (!target_reaches_color) {
          Diag("MCX006", Severity::kError, a.span,
               "insert into color '" + color + "': target flow " +
                   RenderFlow(target.flow) +
                   " can never carry that color, so the insert must fail at "
                   "runtime");
        }
        if (a.constructor != nullptr) {
          AbstractValue ctx = target;
          AnalyzeExpr(*a.constructor, ctx);
          CheckDuplicateIdentity(*a.constructor, color, a.span);
        }
        break;
      }
      case UpdateAction::Kind::kDelete:
      case UpdateAction::Kind::kReplace: {
        // Deletes of nodes not in the tree are tolerated at runtime, so an
        // unreachable color is not an error; skip selector analysis when
        // the abstract context is empty to avoid a spurious MCX003.
        if (!target_reaches_color) break;
        AbstractValue ctx = target;
        ctx.unmasked = in_color;
        ctx.flow = FilterVisible(in_color);
        if (!a.selector.steps.empty()) {
          AnalyzePath(a.selector, ctx, a.span);
        }
        break;
      }
    }
  }

  // ---- environment -------------------------------------------------------

  const VarInfo* Lookup(const std::string& var) const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->first == var) return &it->second;
    }
    return nullptr;
  }

  std::string ColorList() const {
    std::string s;
    for (const std::string& c : graph_.schema().colors()) {
      if (!s.empty()) s += ", ";
      s += c;
    }
    return s.empty() ? "<none>" : s;
  }

  const ParsedQuery& q_;
  const AnalyzeOptions& opts_;
  ColorFlowGraph graph_;
  AnalysisReport report_;
  std::vector<std::pair<std::string, VarInfo>> scopes_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Diagnostic / AnalysisReport rendering
// ---------------------------------------------------------------------------

std::string Diagnostic::ToString() const {
  std::string s = severity == Severity::kError ? "error " : "warning ";
  s += code;
  if (line > 0) {
    s += StrFormat(" at %zu:%zu", line, col);
  }
  s += ": ";
  s += message;
  return s;
}

size_t AnalysisReport::num_errors() const {
  size_t n = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == Severity::kError) ++n;
  }
  return n;
}

size_t AnalysisReport::num_warnings() const {
  return diagnostics.size() - num_errors();
}

std::string AnalysisReport::ToText() const {
  std::string out = "EXPLAIN CHECK (default color '" + default_color + "')\n";
  out += "flow:\n";
  if (flow.empty()) {
    out += "  (no location steps)\n";
  } else {
    for (const std::string& line : flow) {
      out += "  " + line + "\n";
    }
  }
  if (diagnostics.empty()) {
    out += "check: clean\n";
  } else {
    out += StrFormat("check: %zu error(s), %zu warning(s)\n", num_errors(),
                     num_warnings());
    for (const Diagnostic& d : diagnostics) {
      out += "  " + d.ToString() + "\n";
    }
  }
  return out;
}

std::string AnalysisReport::ToJson() const {
  std::string out = "{\"default_color\":\"" + EscapeJson(default_color) +
                    "\",\"flow\":[";
  for (size_t i = 0; i < flow.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + EscapeJson(flow[i]) + "\"";
  }
  out += StrFormat("],\"errors\":%zu,\"warnings\":%zu,\"diagnostics\":[",
                   num_errors(), num_warnings());
  for (size_t i = 0; i < diagnostics.size(); ++i) {
    const Diagnostic& d = diagnostics[i];
    if (i > 0) out += ",";
    out += "{\"code\":\"" + EscapeJson(d.code) + "\",\"severity\":\"";
    out += d.severity == Severity::kError ? "error" : "warning";
    out += StrFormat("\",\"line\":%zu,\"col\":%zu,\"begin\":%u,\"end\":%u,",
                     d.line, d.col, d.span.begin, d.span.end);
    out += "\"message\":\"" + EscapeJson(d.message) + "\"}";
  }
  out += "]}";
  return out;
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

AnalysisReport Analyze(const ParsedQuery& q, const AnalyzeOptions& opts) {
  if (opts.schema == nullptr) {
    AnalysisReport r;
    r.default_color = opts.default_color;
    Diagnostic d;
    d.code = "MCX000";
    d.severity = Severity::kError;
    d.message = "no schema available for analysis";
    r.diagnostics.push_back(std::move(d));
    return r;
  }
  Analyzer a(q, opts);
  AnalysisReport r = a.Run();
  // Deterministic rendering: diagnostics in (byte offset, code) order
  // regardless of traversal order, stable for ties so equal-position
  // duplicates keep their emission order.
  std::stable_sort(r.diagnostics.begin(), r.diagnostics.end(),
                   [](const Diagnostic& lhs, const Diagnostic& rhs) {
                     if (lhs.span.begin != rhs.span.begin) {
                       return lhs.span.begin < rhs.span.begin;
                     }
                     return lhs.code < rhs.code;
                   });
  return r;
}

}  // namespace mct::mcx
