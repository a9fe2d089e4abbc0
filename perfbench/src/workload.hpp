// The workload interface and the per-layer metric sheet.
#pragma once

#include <memory>
#include <string>

#include "deploy.hpp"
#include "harness.hpp"

namespace perfbench {

/// What one timed pass over a workload's fixed operation sequence yields.
struct PassResult {
  std::uint64_t accepted = 0;  // access handshakes the routers admitted
  std::uint64_t requests = 0;  // access requests the routers processed
  double wall_s = 0;           // wall time of the timed phase
  Samples op_ms;               // the workload's unit operation, per sample
};

/// Every per-layer metric, in output order, with its unit. Metrics a
/// workload does not exercise stay 0.
class Layers {
 public:
  Layers();
  void set(const std::string& name, double value);  // throws on unknown
  bool has(const std::string& name) const;
  void add_to(Report& report) const;

 private:
  struct Row {
    std::string name;
    std::string unit;
    double value = 0;
  };
  std::vector<Row> rows_;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds one complete deployment from the run's seed (timed as setup).
  /// Deployments built from one seed are identical.
  virtual void setup() = 0;
  /// Runs the fixed operation sequence on deployment `index`. Input
  /// generation happens before the timed phase and is not counted in it.
  virtual PassResult run(std::size_t index, SpanLog& spans, Tally& tally) = 0;
  /// Traced-run extras: per-layer metrics from the spans of the traced pass
  /// and from the workload's own follow-up measurements.
  virtual void layers(const PassResult& traced, const SpanLog& spans,
                      Tally& tally, Layers& out) = 0;
  /// The signatures and URL the unit-cost phase measures on.
  virtual UnitInputs unit_inputs() = 0;
  /// Name of the unit operation whose latency op_ms holds.
  virtual const char* op_name() const = 0;
};

std::unique_ptr<Workload> make_connect(const RunOptions& opt);
std::unique_ptr<Workload> make_admission(const RunOptions& opt);
std::unique_ptr<Workload> make_revocation_churn(const RunOptions& opt);
std::unique_ptr<Workload> make_metro_day(const RunOptions& opt);

/// Unit costs of the curve, math and groupsig layers, measured on the
/// workload's own signatures and URL.
void measure_unit_costs(const UnitInputs& in, Tally& tally, Layers& out);

}  // namespace perfbench
