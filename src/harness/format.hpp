// Paper-style table/figure formatters for the benchmark harness: execution
// time breakdowns (figures 3-6), LAP success-rate tables (Table 3) and
// diff statistics (Table 4).
#pragma once

#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "policy/lap.hpp"

namespace aecdsm::harness {

/// "87.0%" style percentage.
std::string pct(double fraction, int decimals = 1);

/// One bar of a stacked execution-time figure.
struct BreakdownBar {
  std::string label;
  TimeBreakdown acct;
  Cycles finish = 0;
};

/// Print stacked execution-time bars normalized to the first bar's finish
/// time — the layout of the paper's figures 4, 5 and 6.
void print_breakdown_figure(std::ostream& os, const std::string& title,
                            const std::vector<BreakdownBar>& bars);

/// One row of Table 3.
struct LapRow {
  std::string variable;
  std::uint64_t lock_events = 0;
  double pct_of_total = 0.0;
  policy::LapScores scores;
};

void print_lap_table(std::ostream& os, const std::string& app,
                     const std::vector<LapRow>& rows);

/// One row of Table 4.
struct DiffRow {
  std::string app;
  DiffStats stats;
};

void print_diff_table(std::ostream& os, const std::vector<DiffRow>& rows);

/// Section header used by every bench binary.
void print_header(std::ostream& os, const std::string& title);

}  // namespace aecdsm::harness
