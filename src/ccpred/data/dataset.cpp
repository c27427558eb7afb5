#include "ccpred/data/dataset.hpp"

#include <cmath>
#include <limits>

#include "ccpred/common/error.hpp"

namespace ccpred::data {

void Dataset::add(const sim::RunConfig& cfg, double time_s) {
  CCPRED_CHECK_MSG(std::isfinite(time_s) && time_s > 0.0,
                   "time_s must be a finite positive wall time, got "
                       << time_s);
  CCPRED_CHECK_MSG(cfg.o > 0 && cfg.v > 0 && cfg.nodes > 0 && cfg.tile > 0,
                   "run configuration fields must be positive");
  configs_.push_back(cfg);
  y_.push_back(time_s);
}

linalg::Matrix Dataset::features() const {
  linalg::Matrix x(size(), kNumFeatures);
  for (std::size_t i = 0; i < size(); ++i) {
    x(i, kFeatO) = configs_[i].o;
    x(i, kFeatV) = configs_[i].v;
    x(i, kFeatNodes) = configs_[i].nodes;
    x(i, kFeatTile) = configs_[i].tile;
  }
  return x;
}

const sim::RunConfig& Dataset::config(std::size_t i) const {
  CCPRED_CHECK(i < size());
  return configs_[i];
}

double Dataset::target(std::size_t i) const {
  CCPRED_CHECK(i < size());
  return y_[i];
}

double Dataset::node_hours(std::size_t i) const {
  return sim::CcsdSimulator::node_hours(config(i), target(i));
}

Dataset Dataset::select(const std::vector<std::size_t>& indices) const {
  Dataset out;
  for (auto i : indices) out.add(config(i), target(i));
  return out;
}

std::map<std::pair<int, int>, std::vector<std::size_t>>
Dataset::group_by_problem() const {
  std::map<std::pair<int, int>, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < size(); ++i) {
    groups[{configs_[i].o, configs_[i].v}].push_back(i);
  }
  return groups;
}

std::vector<std::pair<int, int>> Dataset::problems() const {
  std::vector<std::pair<int, int>> out;
  for (const auto& [key, rows] : group_by_problem()) out.push_back(key);
  return out;
}

const std::vector<std::string>& Dataset::feature_names() {
  static const std::vector<std::string> names = {"O", "V", "nodes",
                                                 "tilesize"};
  return names;
}

CsvTable Dataset::to_csv() const {
  CsvTable t;
  t.header = {"O", "V", "nodes", "tilesize", "time_s"};
  t.rows.reserve(size());
  for (std::size_t i = 0; i < size(); ++i) {
    const auto& c = configs_[i];
    t.rows.push_back({static_cast<double>(c.o), static_cast<double>(c.v),
                      static_cast<double>(c.nodes),
                      static_cast<double>(c.tile), y_[i]});
  }
  return t;
}

Dataset Dataset::from_csv(const CsvTable& table) {
  Dataset d;
  const auto co = table.column("O");
  const auto cv = table.column("V");
  const auto cn = table.column("nodes");
  const auto ct = table.column("tilesize");
  const auto cy = table.column("time_s");
  // Each run field is checked before the cast: converting NaN or a double
  // outside int's range to int is undefined behaviour.
  const auto field = [&](const std::vector<double>& row, std::size_t col) {
    const double v = row[col];
    CCPRED_CHECK_MSG(std::isfinite(v) && v == std::trunc(v) && v >= 1.0 &&
                         v <= std::numeric_limits<int>::max(),
                     "CSV column " << table.header[col]
                                   << ": expected an integer in [1, "
                                   << std::numeric_limits<int>::max()
                                   << "], got " << v);
    return static_cast<int>(v);
  };
  for (const auto& row : table.rows) {
    d.add(sim::RunConfig{.o = field(row, co),
                         .v = field(row, cv),
                         .nodes = field(row, cn),
                         .tile = field(row, ct)},
          row[cy]);
  }
  return d;
}

}  // namespace ccpred::data
