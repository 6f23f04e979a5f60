#include "telemetry/exporter.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iterator>
#include <ostream>
#include <string_view>

namespace graf::telemetry {

namespace {

/// Shortest round-trip double formatting (%.17g is exact but noisy; %.12g
/// keeps files readable and is far below metric noise).
std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void write_series_json(std::ostream& os, const TimeSeriesStore& store) {
  os << "{\n  \"series\": [";
  bool first_series = true;
  for (const auto& [key, points] : store.series()) {
    if (!first_series) os << ",";
    first_series = false;
    os << "\n    {\"key\": \"" << json_escape(key) << "\", \"points\": [";
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (i > 0) os << ", ";
      os << "[" << num(points[i].time) << ", " << num(points[i].value) << "]";
    }
    os << "]}";
  }
  os << "\n  ]\n}\n";
}

void write_series_csv(std::ostream& os, const TimeSeriesStore& store) {
  os << "key,time,value\n";
  for (const auto& [key, points] : store.series()) {
    // Keys may contain commas inside label braces; quote them.
    for (const SeriesPoint& p : points)
      os << "\"" << key << "\"," << num(p.time) << "," << num(p.value) << "\n";
  }
}

void write_snapshot_json(std::ostream& os, const RegistrySnapshot& snapshot) {
  os << "{\n  \"metrics\": [";
  bool first = true;
  for (const MetricSnapshot& m : snapshot.metrics) {
    if (!first) os << ",";
    first = false;
    os << "\n    {\"name\": \"" << json_escape(m.name) << "\", \"labels\": {";
    for (std::size_t i = 0; i < m.labels.size(); ++i) {
      if (i > 0) os << ", ";
      os << "\"" << json_escape(m.labels[i].first) << "\": \""
         << json_escape(m.labels[i].second) << "\"";
    }
    os << "}, \"type\": \"" << metric_type_name(m.type) << "\"";
    if (m.type == MetricType::kHistogram) {
      const HistogramSnapshot& h = *m.histogram;
      os << ", \"count\": " << h.total << ", \"sum\": " << num(h.sum);
      if (h.total > 0) {
        os << ", \"min\": " << num(h.min) << ", \"max\": " << num(h.max)
           << ", \"p50\": " << num(h.percentile(50.0))
           << ", \"p95\": " << num(h.percentile(95.0))
           << ", \"p99\": " << num(h.percentile(99.0));
      }
    } else {
      os << ", \"value\": " << num(m.value);
    }
    os << "}";
  }
  os << "\n  ]\n}\n";
}

namespace {

template <typename Fn>
bool export_to_file(const std::string& path, Fn&& write) {
  std::ofstream os{path};
  if (!os) return false;
  write(os);
  return static_cast<bool>(os);
}

}  // namespace

bool export_series_json(const std::string& path, const TimeSeriesStore& store) {
  return export_to_file(path, [&](std::ostream& os) { write_series_json(os, store); });
}

bool export_series_csv(const std::string& path, const TimeSeriesStore& store) {
  return export_to_file(path, [&](std::ostream& os) { write_series_csv(os, store); });
}

void BenchExporter::record(const std::string& name, double value,
                           const std::string& unit) {
  record_at(name, value, unit, static_cast<std::int64_t>(std::time(nullptr)));
}

void BenchExporter::record_at(const std::string& name, double value,
                              const std::string& unit, std::int64_t unix_seconds) {
  rows_.push_back({name, value, unit, unix_seconds});
}

void BenchExporter::set_meta(const std::string& key, const std::string& value) {
  for (auto& [k, v] : meta_)
    if (k == key) {
      v = value;
      return;
    }
  meta_.emplace_back(key, value);
}

void BenchExporter::write_json(std::ostream& os) const {
  os << "{\n";
  if (!meta_.empty()) {
    os << "  \"meta\": {";
    bool first = true;
    for (const auto& [k, v] : meta_) {
      os << (first ? "" : ", ") << "\"" << json_escape(k) << "\": \"" << json_escape(v)
         << "\"";
      first = false;
    }
    os << "},\n";
  }
  os << "  \"results\": [";
  bool first = true;
  for (const Row& r : rows_) {
    if (!first) os << ",";
    first = false;
    os << "\n    {\"name\": \"" << json_escape(r.name) << "\", \"value\": "
       << num(r.value) << ", \"unit\": \"" << json_escape(r.unit)
       << "\", \"timestamp\": " << r.timestamp << "}";
  }
  os << "\n  ]\n}\n";
}

bool BenchExporter::write_json_file(const std::string& path) const {
  return export_to_file(path, [&](std::ostream& os) { write_json(os); });
}

namespace {

/// Minimal recursive-descent reader for the flat bench format write_json
/// emits ({"meta": {...}, "results": [{"name", "value", "unit",
/// "timestamp"}, ...]}). Unknown row keys are skipped; it is not a general
/// JSON parser.
struct BenchReader {
  const std::string& text;
  std::size_t pos = 0;

  void skip_ws() {
    while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos])))
      ++pos;
  }

  bool consume(char c) {
    skip_ws();
    if (pos >= text.size() || text[pos] != c) return false;
    ++pos;
    return true;
  }

  bool peek(char c) {
    skip_ws();
    return pos < text.size() && text[pos] == c;
  }

  bool read_string(std::string& out) {
    if (!consume('"')) return false;
    out.clear();
    while (pos < text.size()) {
      const char c = text[pos++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos >= text.size()) return false;
      const char e = text[pos++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos + 4 > text.size()) return false;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return false;
          }
          // The writer only escapes control bytes, so one byte suffices.
          out += static_cast<char>(code);
          break;
        }
        default: return false;
      }
    }
    return false;
  }

  bool read_number(double& out) {
    skip_ws();
    const char* start = text.c_str() + pos;
    char* end = nullptr;
    out = std::strtod(start, &end);
    if (end == start) return false;
    pos += static_cast<std::size_t>(end - start);
    return true;
  }

  /// One {"key": scalar, ...} object into a Row; unknown keys skipped.
  bool read_row(BenchExporter::Row& row) {
    if (!consume('{')) return false;
    bool first = true;
    while (!peek('}')) {
      if (!first && !consume(',')) return false;
      first = false;
      std::string key;
      if (!read_string(key) || !consume(':')) return false;
      if (key == "name" || key == "unit") {
        std::string value;
        if (!read_string(value)) return false;
        (key == "name" ? row.name : row.unit) = std::move(value);
      } else if (peek('"')) {
        std::string skipped;
        if (!read_string(skipped)) return false;
      } else {
        double value = 0.0;
        if (!read_number(value)) return false;
        if (key == "value") row.value = value;
        if (key == "timestamp") row.timestamp = static_cast<std::int64_t>(value);
      }
    }
    return consume('}');
  }

  /// The {"key": "value", ...} meta object.
  bool read_meta(std::vector<std::pair<std::string, std::string>>& meta) {
    if (!consume('{')) return false;
    bool first = true;
    while (!peek('}')) {
      if (!first && !consume(',')) return false;
      first = false;
      std::string key;
      std::string value;
      if (!read_string(key) || !consume(':') || !read_string(value)) return false;
      meta.emplace_back(std::move(key), std::move(value));
    }
    return consume('}');
  }

  bool read_rows(std::vector<BenchExporter::Row>& rows) {
    if (!consume('[')) return false;
    bool first = true;
    while (!peek(']')) {
      if (!first && !consume(',')) return false;
      first = false;
      BenchExporter::Row row;
      if (!read_row(row)) return false;
      rows.push_back(std::move(row));
    }
    return consume(']');
  }

  bool read_file(std::vector<BenchExporter::Row>& rows,
                 std::vector<std::pair<std::string, std::string>>& meta) {
    if (!consume('{')) return false;
    bool have_rows = false;
    bool first = true;
    while (!peek('}')) {
      if (!first && !consume(',')) return false;
      first = false;
      std::string key;
      if (!read_string(key) || !consume(':')) return false;
      if (key == "meta") {
        if (!read_meta(meta)) return false;
      } else if (key == "results") {
        if (!read_rows(rows)) return false;
        have_rows = true;
      } else {
        return false;
      }
    }
    return have_rows && consume('}');
  }
};

}  // namespace

namespace {

/// Benchmark identity minus google-benchmark's "/real_time" instance
/// decoration, so a bench that switches between CPU-time and wall-clock
/// reporting still replaces its old row instead of leaving a stale
/// duplicate under the other spelling.
std::string_view bench_base_name(std::string_view name) {
  constexpr std::string_view kRealTime = "/real_time";
  if (name.size() >= kRealTime.size() && name.ends_with(kRealTime))
    name.remove_suffix(kRealTime.size());
  return name;
}

}  // namespace

bool BenchExporter::merge_json_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) return false;
  std::string text{std::istreambuf_iterator<char>{in},
                   std::istreambuf_iterator<char>{}};
  std::vector<Row> file_rows;
  std::vector<std::pair<std::string, std::string>> file_meta;
  BenchReader reader{text};
  if (!reader.read_file(file_rows, file_meta)) return false;
  if (meta_.empty()) meta_ = std::move(file_meta);
  std::vector<Row> merged;
  merged.reserve(file_rows.size() + rows_.size());
  for (Row& r : file_rows) {
    const std::string_view base = bench_base_name(r.name);
    const bool overridden =
        std::any_of(rows_.begin(), rows_.end(), [&](const Row& mine) {
          return bench_base_name(mine.name) == base;
        });
    if (!overridden) merged.push_back(std::move(r));
  }
  merged.insert(merged.end(), std::make_move_iterator(rows_.begin()),
                std::make_move_iterator(rows_.end()));
  rows_ = std::move(merged);
  return true;
}

}  // namespace graf::telemetry
