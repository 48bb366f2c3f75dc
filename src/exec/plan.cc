#include "exec/plan.h"

#include <cstdio>
#include <cstdlib>

namespace wdr::exec {
namespace {

void RenderInto(const PlanNode& node, int depth, std::string& out) {
  out.append(static_cast<size_t>(depth) * 2, ' ');
  out += node.label.empty() ? OpKindName(node.kind) : node.label;
  if (node.est_rows >= 0) {
    char buffer[48];
    std::snprintf(buffer, sizeof(buffer), "  (est %.0f rows)", node.est_rows);
    out += buffer;
  }
  out += '\n';
  for (const auto& child : node.children) RenderInto(*child, depth + 1, out);
}

}  // namespace

bool PlanModeDefault() {
  static const bool value = [] {
    const char* env = std::getenv("WDR_PLAN");
    return env != nullptr && env[0] == '1' && env[1] == '\0';
  }();
  return value;
}

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kIndexScan:
      return "index_scan";
    case OpKind::kBoundNestedLoopJoin:
      return "bound_loop";
    case OpKind::kHashJoin:
      return "hash_join";
    case OpKind::kProject:
      return "project";
    case OpKind::kHashDedup:
      return "dedup";
    case OpKind::kLimit:
      return "limit";
  }
  return "?";
}

std::string PlanNode::Render() const {
  std::string out;
  RenderInto(*this, 0, out);
  return out;
}

}  // namespace wdr::exec
