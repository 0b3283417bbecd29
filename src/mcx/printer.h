// MCXQuery unparser: renders a parsed query back to canonical (compact,
// unabbreviated) MCXQuery text. Guarantees print/parse stability:
// Parse(Print(q)) yields a structurally identical query (property-tested),
// which also makes Print a normalizer for abbreviated syntax.

#ifndef COLORFUL_XML_MCX_PRINTER_H_
#define COLORFUL_XML_MCX_PRINTER_H_

#include <string>

#include "mcx/ast.h"

namespace mct::mcx {

std::string Print(const ParsedQuery& q);
std::string Print(const Expr& e);
std::string Print(const PathExpr& p);

/// The axis keyword as written in a path ("child", "descendant", ...).
const char* AxisName(Axis a);

}  // namespace mct::mcx

#endif  // COLORFUL_XML_MCX_PRINTER_H_
