#include "mcx/printer.h"

#include "common/strings.h"

namespace mct::mcx {

const char* AxisName(Axis a) {
  switch (a) {
    case Axis::kChild:
      return "child";
    case Axis::kDescendant:
      return "descendant";
    case Axis::kDescendantOrSelf:
      return "descendant-or-self";
    case Axis::kParent:
      return "parent";
    case Axis::kAncestor:
      return "ancestor";
    case Axis::kSelf:
      return "self";
    case Axis::kAttribute:
      return "attribute";
  }
  return "?";
}

namespace {

const char* CmpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "!=";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

void PrintExprTo(const Expr& e, std::string* out);

void PrintPathTo(const PathExpr& p, std::string* out) {
  bool first_bare = false;
  if (p.from_document) {
    *out += "document(\"" + p.doc_arg + "\")";
  } else if (!p.start_var.empty()) {
    *out += p.start_var;
  } else {
    first_bare = true;  // relative path: first step without a slash
  }
  for (size_t i = 0; i < p.steps.size(); ++i) {
    const PathStep& s = p.steps[i];
    if (!(first_bare && i == 0)) *out += "/";
    if (!s.color.empty()) *out += "{" + s.color + "}";
    if (s.axis == Axis::kAttribute) {
      *out += "@" + s.tag;
    } else {
      *out += AxisName(s.axis);
      *out += "::";
      *out += s.tag.empty() ? "node()" : s.tag;
    }
    for (const auto& pred : s.predicates) {
      *out += "[";
      PrintExprTo(*pred, out);
      *out += "]";
    }
  }
}

void PrintBindingsTo(const std::vector<Binding>& bindings, std::string* out) {
  for (size_t i = 0; i < bindings.size(); ++i) {
    const Binding& b = bindings[i];
    *out += (i == 0 ? (b.is_let ? "let " : "for ") : ", ");
    *out += b.var;
    *out += b.is_let ? " := " : " in ";
    PrintExprTo(*b.expr, out);
  }
}

void PrintFlworTo(const Expr& e, std::string* out) {
  PrintBindingsTo(e.bindings, out);
  if (e.where != nullptr) {
    *out += " where ";
    PrintExprTo(*e.where, out);
  }
  if (e.order_by != nullptr) {
    *out += " order by ";
    PrintExprTo(*e.order_by, out);
    if (e.order_descending) *out += " descending";
  }
  *out += " return ";
  PrintExprTo(*e.ret, out);
}

void PrintExprTo(const Expr& e, std::string* out) {
  switch (e.kind) {
    case Expr::Kind::kPath:
      PrintPathTo(e.path, out);
      return;
    case Expr::Kind::kString:
      *out += "\"" + e.str + "\"";
      return;
    case Expr::Kind::kText:
      *out += e.str;
      return;
    case Expr::Kind::kNumber:
      if (e.num == static_cast<double>(static_cast<int64_t>(e.num))) {
        *out += std::to_string(static_cast<int64_t>(e.num));
      } else {
        *out += StrFormat("%g", e.num);
      }
      return;
    case Expr::Kind::kVarRef:
      *out += e.str;
      return;
    case Expr::Kind::kCompare:
      PrintExprTo(*e.children[0], out);
      *out += " ";
      *out += CmpName(e.cmp);
      *out += " ";
      PrintExprTo(*e.children[1], out);
      return;
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr: {
      // "or" binds looser than "and": parenthesize an or-operand under an
      // and so the reparse keeps the association.
      auto operand = [&](const Expr& c) {
        bool paren = e.kind == Expr::Kind::kAnd && c.kind == Expr::Kind::kOr;
        if (paren) *out += "(";
        PrintExprTo(c, out);
        if (paren) *out += ")";
      };
      operand(*e.children[0]);
      *out += e.kind == Expr::Kind::kAnd ? " and " : " or ";
      operand(*e.children[1]);
      return;
    }
    case Expr::Kind::kContains:
      *out += "contains(";
      PrintExprTo(*e.children[0], out);
      *out += ", ";
      PrintExprTo(*e.children[1], out);
      *out += ")";
      return;
    case Expr::Kind::kDistinctValues:
      *out += "distinct-values(";
      PrintExprTo(*e.children[0], out);
      *out += ")";
      return;
    case Expr::Kind::kCount:
      *out += "count(";
      PrintExprTo(*e.children[0], out);
      *out += ")";
      return;
    case Expr::Kind::kFLWOR:
      PrintFlworTo(e, out);
      return;
    case Expr::Kind::kSequence:
      for (size_t i = 0; i < e.children.size(); ++i) {
        if (i > 0) *out += ", ";
        PrintExprTo(*e.children[i], out);
      }
      return;
    case Expr::Kind::kElement: {
      *out += "<" + e.tag;
      for (const ConstructorAttr& a : e.attrs) {
        *out += " " + a.name + "=\"" + a.value + "\"";
      }
      if (e.children.empty()) {
        *out += "/>";
        return;
      }
      *out += ">";
      for (const auto& c : e.children) {
        if (c->kind == Expr::Kind::kElement) {
          PrintExprTo(*c, out);
        } else if (c->kind == Expr::Kind::kText) {
          *out += c->str;
        } else {
          *out += "{ ";
          PrintExprTo(*c, out);
          *out += " }";
        }
      }
      *out += "</" + e.tag + ">";
      return;
    }
    case Expr::Kind::kCreateColor:
      *out += "createColor(" + e.str + ", ";
      PrintExprTo(*e.children[0], out);
      *out += ")";
      return;
    case Expr::Kind::kCreateCopy:
      *out += "createCopy(";
      PrintExprTo(*e.children[0], out);
      *out += ")";
      return;
  }
}

}  // namespace

std::string Print(const Expr& e) {
  std::string out;
  PrintExprTo(e, &out);
  return out;
}

std::string Print(const PathExpr& p) {
  std::string out;
  PrintPathTo(p, &out);
  return out;
}

std::string Print(const ParsedQuery& q) {
  std::string out;
  if (!q.is_update) {
    PrintExprTo(*q.root, &out);
    return out;
  }
  PrintBindingsTo(q.bindings, &out);
  if (q.where != nullptr) {
    out += " where ";
    PrintExprTo(*q.where, &out);
  }
  out += " update " + q.target_var + " { ";
  for (size_t i = 0; i < q.actions.size(); ++i) {
    const UpdateAction& a = q.actions[i];
    if (i > 0) out += ", ";
    switch (a.kind) {
      case UpdateAction::Kind::kInsert:
        out += "insert ";
        PrintExprTo(*a.constructor, &out);
        if (!a.color.empty()) out += " into {" + a.color + "}";
        break;
      case UpdateAction::Kind::kDelete:
        out += "delete";
        if (!a.color.empty()) out += " {" + a.color + "}";
        if (!a.selector.steps.empty()) {
          out += " ";
          out += Print(a.selector);
        }
        break;
      case UpdateAction::Kind::kReplace:
        out += "replace " + Print(a.selector) + " with \"" + a.new_value +
               "\"";
        break;
    }
  }
  out += " }";
  return out;
}

}  // namespace mct::mcx
