#include "ccpred/guidance/report.hpp"

#include "ccpred/common/strings.hpp"

namespace ccpred::guide {

std::string paren_cell(double true_value, double pred_value, bool match,
                       int precision) {
  std::string s = format_double(true_value, precision);
  if (!match) {
    s += '(';
    s += format_double(pred_value, precision);
    s += ')';
  }
  return s;
}

std::string paren_cell(int true_value, int pred_value, bool match) {
  std::string s = std::to_string(true_value);
  if (!match) {
    s += '(';
    s += std::to_string(pred_value);
    s += ')';
  }
  return s;
}

std::size_t mismatch_count(const std::vector<ProblemOutcome>& outcomes) {
  std::size_t n = 0;
  for (const auto& po : outcomes) {
    if (!po.config_match) ++n;
  }
  return n;
}

TextTable format_stq_table(const std::vector<ProblemOutcome>& outcomes,
                           const std::string& title) {
  TextTable table({"O", "V", "Nodes", "Tile size", "Runtime (s)"}, title);
  for (const auto& po : outcomes) {
    table.add_row({
        std::to_string(po.o),
        std::to_string(po.v),
        paren_cell(po.truth.config.nodes, po.predicted.config.nodes,
                   po.config_match),
        paren_cell(po.truth.config.tile, po.predicted.config.tile,
                   po.config_match),
        paren_cell(po.true_time, po.realized_time, po.config_match, 2),
    });
  }
  return table;
}

TextTable format_bq_table(const std::vector<ProblemOutcome>& outcomes,
                          const std::string& title) {
  TextTable table({"O", "V", "Nodes", "Tile size", "Runtime (s)",
                   "Node Hours"},
                  title);
  for (const auto& po : outcomes) {
    table.add_row({
        std::to_string(po.o),
        std::to_string(po.v),
        paren_cell(po.truth.config.nodes, po.predicted.config.nodes,
                   po.config_match),
        paren_cell(po.truth.config.tile, po.predicted.config.tile,
                   po.config_match),
        paren_cell(po.true_time, po.realized_time, po.config_match, 2),
        paren_cell(po.true_value, po.realized_value, po.config_match, 2),
    });
  }
  return table;
}

}  // namespace ccpred::guide
