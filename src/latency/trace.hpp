// Latency trace records and file I/O.
//
// A trace is a time-ordered stream of (time, src, dst, rtt) ping samples —
// the exact input the paper's simulator replays (their 3-day PlanetLab
// trace). Traces can be streamed straight out of TraceGenerator or persisted
// to a compact binary format (20 bytes/record) and replayed later; a CSV
// export exists for interoperability with external analysis tools.
#pragma once

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "core/node_id.hpp"

namespace nc::lat {

struct TraceRecord {
  double t_s = 0.0;     // observation time (seconds from trace start)
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  float rtt_ms = 0.0f;  // measured application-level RTT
};

/// Anything that yields trace records in non-decreasing time order.
class TraceSource {
 public:
  virtual ~TraceSource() = default;
  [[nodiscard]] virtual std::optional<TraceRecord> next() = 0;
  /// Number of distinct nodes the trace may reference (ids in [0, n)).
  [[nodiscard]] virtual int num_nodes() const = 0;
};

/// Writes the binary trace format:
///   header: magic 'NCTR', u32 version, u32 num_nodes, u64 record count
///   records: f64 t, i32 src, i32 dst, f32 rtt
class TraceWriter {
 public:
  TraceWriter(const std::string& path, int num_nodes);
  ~TraceWriter();
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  void append(const TraceRecord& record);
  /// Flushes and patches the record count into the header.
  void close();

  [[nodiscard]] std::uint64_t written() const noexcept { return count_; }

 private:
  std::ofstream out_;
  std::uint64_t count_ = 0;
  bool closed_ = false;
};

class TraceReader final : public TraceSource {
 public:
  explicit TraceReader(const std::string& path);

  /// The next record, or nullopt after the header's record count. Throws
  /// nc::CheckError when the body ends before that count.
  [[nodiscard]] std::optional<TraceRecord> next() override;
  [[nodiscard]] int num_nodes() const override { return num_nodes_; }
  [[nodiscard]] std::uint64_t record_count() const noexcept { return count_; }

 private:
  std::ifstream in_;
  int num_nodes_ = 0;
  std::uint64_t count_ = 0;
  std::uint64_t read_ = 0;
};

/// Drains `source` into a CSV file with a "t_s,src,dst,rtt_ms" header row.
/// Returns the number of records written.
std::uint64_t export_csv(TraceSource& source, const std::string& path);

/// One-pass trace splitter for parallel replay ingest: routes every record
/// of `source` to the binary trace file `<path_prefix>.shard<s>` where
/// s = shard_of_node(record.dst, num_nodes, shards) — dst is the record's
/// FIRST stop in the replay pipeline, so each engine shard reads exactly
/// the slice it would have been mailed by a single reader. The split is
/// stable (original relative order within each file), which is what keeps
/// ShardedEngine::run_partitioned bit-identical to the single-reader path.
/// `num_nodes` must cover every id in the trace (pass the driver's node
/// count, which may exceed the source's). Returns the per-shard paths,
/// indexed by shard.
std::vector<std::string> partition_trace(TraceSource& source,
                                         const std::string& path_prefix,
                                         int num_nodes, int shards);

}  // namespace nc::lat
