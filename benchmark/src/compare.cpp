// cvewb-bench compare: did a change move an end-to-end metric?
//
// Reads two ledgers (JSON lines written by `cvewb-bench run --out`), one
// per commit, pairs runs of the same workload and seed, and applies the
// small-sandbox rule with the bounds BENCHMARK.json fixes:
//
//   * unresolved -- the parent's own spread (interquartile range over
//     median) is wider than the bound, and not every change run reads
//     better than every parent run;
//   * regressed  -- the change's median is worse than the parent's by more
//     than the bound;
//   * improved   -- the change wins at least 9/10 of the pairs (ties count
//     for neither) and the medians differ by more than the parent's
//     interquartile range;
//   * unchanged  -- otherwise.
//
// Exit status 1 when any (workload, metric) regressed, 2 on bad input.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "harness.h"
#include "util/json.h"

namespace cvewb::bench {

namespace {

struct Bound {
  bool lower_is_better = true;
  double bound = 0;
};

/// workload -> metric -> seed -> value (the last row wins on repeats).
using Ledger = std::map<std::string, std::map<std::string, std::map<std::int64_t, double>>>;

std::optional<util::Json> read_json_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::stringstream text;
  text << in.rdbuf();
  return util::parse_json(text.str());
}

/// Reads one ledger.  Every row of both ledgers must come from runs of the
/// same length (`seconds`, first seen fixes it): runs of different lengths
/// are not comparable.
bool read_ledger(const std::string& path, Ledger& ledger, std::optional<std::int64_t>& seconds) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cvewb-bench compare: cannot read " << path << "\n";
    return false;
  }
  std::string line;
  for (std::size_t number = 1; std::getline(in, line); ++number) {
    if (line.empty()) continue;
    const auto row = util::parse_json(line);
    const util::Json* workload = row ? row->find("workload") : nullptr;
    const util::Json* metric = row ? row->find("metric") : nullptr;
    const util::Json* value = row ? row->find("value") : nullptr;
    const util::Json* seed = row ? row->find("seed") : nullptr;
    const util::Json* length = row ? row->find("seconds") : nullptr;
    if (workload == nullptr || metric == nullptr || value == nullptr || seed == nullptr ||
        length == nullptr || workload->type() != util::Json::Type::kString ||
        metric->type() != util::Json::Type::kString ||
        value->type() != util::Json::Type::kNumber || seed->type() != util::Json::Type::kNumber ||
        length->type() != util::Json::Type::kNumber) {
      std::cerr << "cvewb-bench compare: " << path << ":" << number << ": not a ledger row\n";
      return false;
    }
    if (!seconds) seconds = length->as_int64();
    if (length->as_int64() != *seconds) {
      std::cerr << "cvewb-bench compare: " << path << ":" << number << ": a " << length->as_int64()
                << " s run among " << *seconds << " s runs\n";
      return false;
    }
    ledger[workload->as_string()][metric->as_string()][seed->as_int64()] = value->as_number();
  }
  return true;
}

/// Quartiles as Python's statistics.quantiles(values, n=4) computes them
/// (the "exclusive" method); needs at least two values.
std::vector<double> quartiles(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const auto n = static_cast<std::int64_t>(values.size());
  if (n == 1) return {values[0], values[0], values[0]};
  std::vector<double> out;
  const std::int64_t m = n + 1;
  for (std::int64_t i = 1; i < 4; ++i) {
    const std::int64_t j = std::clamp<std::int64_t>(i * m / 4, 1, n - 1);
    const std::int64_t delta = i * m - j * 4;
    out.push_back((values[j - 1] * static_cast<double>(4 - delta) +
                   values[j] * static_cast<double>(delta)) / 4);
  }
  return out;
}

}  // namespace

int compare_main(int argc, char** argv) {
  std::string bench_path = "BENCHMARK.json";
  std::vector<std::string> ledgers;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--bench" && i + 1 < argc) {
      bench_path = argv[++i];
    } else {
      ledgers.push_back(arg);
    }
  }
  if (ledgers.size() != 2) {
    std::cerr << "usage: cvewb-bench compare [--bench BENCHMARK.json] PARENT.jsonl CHANGE.jsonl\n";
    return 2;
  }
  const auto spec = read_json_file(bench_path);
  const util::Json* metrics = spec ? spec->find("end_to_end") : nullptr;
  if (metrics == nullptr || metrics->type() != util::Json::Type::kArray) {
    std::cerr << "cvewb-bench compare: no end_to_end list in " << bench_path << "\n";
    return 2;
  }
  std::vector<std::pair<std::string, Bound>> bounds;
  for (const util::Json& metric : metrics->as_array()) {
    const util::Json* name = metric.find("name");
    const util::Json* better = metric.find("better");
    const util::Json* bound = metric.find("bound");
    if (name == nullptr || better == nullptr || bound == nullptr) continue;
    bounds.push_back(
        {name->as_string(), Bound{better->as_string() == "lower", bound->as_number()}});
  }
  Ledger parent;
  Ledger change;
  std::optional<std::int64_t> seconds;
  if (!read_ledger(ledgers[0], parent, seconds) || !read_ledger(ledgers[1], change, seconds)) {
    return 2;
  }

  std::printf("%-14s %-17s %5s %32s %32s %5s  %s\n", "workload", "metric", "pairs",
              "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict");
  bool regressed = false;
  for (const auto& [workload, parent_metrics] : parent) {
    const auto change_workload = change.find(workload);
    if (change_workload == change.end()) continue;
    for (const auto& [metric, bound] : bounds) {
      const auto p_it = parent_metrics.find(metric);
      const auto c_it = change_workload->second.find(metric);
      if (p_it == parent_metrics.end() || c_it == change_workload->second.end()) continue;
      std::vector<double> p_values;
      std::vector<double> c_values;
      int wins = 0;
      for (const auto& [seed, p_value] : p_it->second) {
        const auto c_value = c_it->second.find(seed);
        if (c_value == c_it->second.end()) continue;
        p_values.push_back(p_value);
        c_values.push_back(c_value->second);
        const double gain = bound.lower_is_better ? p_value - c_value->second
                                                  : c_value->second - p_value;
        if (gain > 0) ++wins;
      }
      if (p_values.empty()) continue;
      const std::vector<double> pq = quartiles(p_values);
      const std::vector<double> cq = quartiles(c_values);
      const double p_median = pq[1];
      const double c_median = cq[1];
      const double spread = p_median != 0 ? (pq[2] - pq[0]) / std::fabs(p_median) : 0;
      const double delta = bound.lower_is_better ? c_median - p_median : p_median - c_median;
      const double worse = p_median != 0 ? delta / std::fabs(p_median) : 0;
      const double best_parent = bound.lower_is_better
                                     ? *std::min_element(p_values.begin(), p_values.end())
                                     : *std::max_element(p_values.begin(), p_values.end());
      const bool all_better = std::all_of(c_values.begin(), c_values.end(), [&](double v) {
        return bound.lower_is_better ? v < best_parent : v > best_parent;
      });
      const double win_fraction = static_cast<double>(wins) / static_cast<double>(p_values.size());
      const bool clear_gain = win_fraction >= 0.9 && -worse * std::fabs(p_median) > pq[2] - pq[0];
      std::string verdict;
      if (spread > bound.bound && !all_better) {
        verdict = "unresolved";
      } else if (worse > bound.bound) {
        verdict = "regressed";
        regressed = true;
      } else if (clear_gain) {
        verdict = "improved";
      } else {
        verdict = "unchanged";
      }
      char parent_text[64];
      char change_text[64];
      std::snprintf(parent_text, sizeof parent_text, "%.5g [%.5g, %.5g]", p_median, pq[0], pq[2]);
      std::snprintf(change_text, sizeof change_text, "%.5g [%.5g, %.5g]", c_median, cq[0], cq[2]);
      std::printf("%-14s %-17s %5zu %32s %32s %4.0f%%  %s\n", workload.c_str(), metric.c_str(),
                  p_values.size(), parent_text, change_text, win_fraction * 100, verdict.c_str());
    }
  }
  return regressed ? 1 : 0;
}

}  // namespace cvewb::bench
