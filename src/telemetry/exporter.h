// Serialization of scraped series and registry snapshots to JSON/CSV, plus
// the flat bench-result format (`BENCH_perf.json`) the perf trajectory is
// tracked with.
//
// Formats (no external JSON dependency; writers emit, they do not parse):
//
//   series JSON   {"series": [{"key": ..., "points": [[t, v], ...]}, ...]}
//   series CSV    key,time,value  (one row per point, header included)
//   snapshot JSON {"metrics": [{"name", "labels", "type", ...}, ...]}
//   bench JSON    {"meta": {key: string, ...},
//                  "results": [{"name", "value", "unit", "timestamp"}, ...]}
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/metrics.h"
#include "telemetry/scraper.h"

namespace graf::telemetry {

/// JSON string escaping (quotes, backslashes, control characters).
std::string json_escape(const std::string& s);

void write_series_json(std::ostream& os, const TimeSeriesStore& store);
void write_series_csv(std::ostream& os, const TimeSeriesStore& store);
void write_snapshot_json(std::ostream& os, const RegistrySnapshot& snapshot);

/// File helpers; return false (and write nothing else) on open failure.
bool export_series_json(const std::string& path, const TimeSeriesStore& store);
bool export_series_csv(const std::string& path, const TimeSeriesStore& store);

/// Accumulates named scalar results (micro-bench timings, derived metrics)
/// and writes the machine-readable BENCH_*.json format: one row per metric,
/// each stamped with value, unit, and a unix timestamp.
class BenchExporter {
 public:
  struct Row {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::int64_t timestamp = 0;  ///< unix seconds
  };

  /// Stamps the row with the current wall-clock time.
  void record(const std::string& name, double value, const std::string& unit);
  void record_at(const std::string& name, double value, const std::string& unit,
                 std::int64_t unix_seconds);

  const std::vector<Row>& rows() const { return rows_; }
  bool empty() const { return rows_.empty(); }

  /// Run metadata: the machine and build the rows were measured on, written
  /// as a top-level "meta" object of string values (omitted when empty).
  /// Setting an existing key overwrites its value.
  void set_meta(const std::string& key, const std::string& value);
  const std::vector<std::pair<std::string, std::string>>& meta() const {
    return meta_;
  }

  void write_json(std::ostream& os) const;
  bool write_json_file(const std::string& path) const;

  /// Merge rows from an existing bench JSON file (the format write_json
  /// emits). File rows whose name is already recorded in this exporter are
  /// dropped — fresh in-memory results win — and the survivors are placed
  /// ahead of the in-memory rows, so binaries sharing one BENCH file can
  /// refresh their own rows without clobbering each other's. Names are
  /// compared modulo a trailing "/real_time" segment (google-benchmark's
  /// UseRealTime decoration), so a bench switching between CPU-time and
  /// wall-clock reporting replaces its old row instead of stranding a dead
  /// duplicate under the other spelling. This exporter's meta object
  /// replaces the file's; the file's is adopted only when this exporter has
  /// none. Returns false (exporter unchanged) when the file is missing or
  /// does not parse.
  bool merge_json_file(const std::string& path);

 private:
  std::vector<Row> rows_;
  std::vector<std::pair<std::string, std::string>> meta_;
};

}  // namespace graf::telemetry
