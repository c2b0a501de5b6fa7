#include "latency/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "common/check.hpp"

namespace nc::lat {

namespace {

constexpr std::uint32_t kMagic = 0x4e435452;  // 'NCTR'
constexpr std::uint32_t kVersion = 1;
constexpr std::streamoff kCountOffset = 12;  // after magic, version, num_nodes

template <typename T>
void write_pod(std::ofstream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}

template <typename T>
bool read_pod(std::ifstream& in, T& v) {
  in.read(reinterpret_cast<char*>(&v), sizeof v);
  return static_cast<bool>(in);
}

}  // namespace

TraceWriter::TraceWriter(const std::string& path, int num_nodes)
    : path_(path), block_(kTraceBlockRecords * kTraceRecordBytes) {
  NC_CHECK_MSG(num_nodes >= 2, "trace needs at least two nodes");
  out_.open(path, std::ios::binary | std::ios::trunc);
  NC_CHECK_MSG(out_.is_open(), "cannot open trace file for writing: " + path);
  write_pod(out_, kMagic);
  write_pod(out_, kVersion);
  write_pod(out_, static_cast<std::uint32_t>(num_nodes));
  write_pod(out_, std::uint64_t{0});  // count, patched in close()
}

TraceWriter::~TraceWriter() {
  if (!closed_) (void)finish();
}

void TraceWriter::append(const TraceRecord& record) {
  NC_CHECK_MSG(!closed_, "append after close");
  char* p = block_.data() + pending_ * kTraceRecordBytes;
  std::memcpy(p, &record.t_s, 8);
  std::memcpy(p + 8, &record.src, 4);
  std::memcpy(p + 12, &record.dst, 4);
  std::memcpy(p + 16, &record.rtt_ms, 4);
  ++count_;
  if (++pending_ == kTraceBlockRecords) write_block();
}

void TraceWriter::write_block() {
  // A failed write sets badbit, which turns every later write into a
  // no-op; finish() reports it.
  out_.write(block_.data(),
             static_cast<std::streamsize>(pending_ * kTraceRecordBytes));
  pending_ = 0;
}

bool TraceWriter::finish() noexcept {
  closed_ = true;
  if (pending_ > 0) write_block();
  out_.seekp(kCountOffset);
  write_pod(out_, count_);
  out_.flush();
  const bool ok = static_cast<bool>(out_);
  out_.close();
  return ok && !out_.fail();
}

void TraceWriter::close() {
  if (closed_) return;
  NC_CHECK_MSG(finish(), "trace write failed (disk full?): " + path_ +
                             " is incomplete");
}

TraceReader::TraceReader(const std::string& path)
    : block_(kTraceBlockRecords * kTraceRecordBytes) {
  in_.open(path, std::ios::binary);
  NC_CHECK_MSG(in_.is_open(), "cannot open trace file: " + path);
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::uint32_t nodes = 0;
  NC_CHECK_MSG(read_pod(in_, magic) && magic == kMagic, "bad trace magic");
  NC_CHECK_MSG(read_pod(in_, version) && version == kVersion,
               "unsupported trace version");
  NC_CHECK_MSG(read_pod(in_, nodes) && nodes >= 2, "bad node count");
  NC_CHECK_MSG(read_pod(in_, count_), "truncated trace header");
  num_nodes_ = static_cast<int>(nodes);
}

std::size_t TraceReader::read_block() {
  const std::uint64_t want =
      std::min<std::uint64_t>(count_ - read_, kTraceBlockRecords);
  in_.read(block_.data(), static_cast<std::streamsize>(want * kTraceRecordBytes));
  block_pos_ = 0;
  block_records_ = static_cast<std::size_t>(in_.gcount()) / kTraceRecordBytes;
  return block_records_;
}

std::optional<TraceRecord> TraceReader::next() {
  if (read_ >= count_) return std::nullopt;
  // A body shorter than the header's count is a damaged file (e.g. a cut
  // partition slice); ending the stream early would shorten a replay
  // without a word.
  NC_CHECK_MSG(block_pos_ < block_records_ || read_block() > 0,
               "truncated trace: the header declares " + std::to_string(count_) +
                   " records but the body ends after " + std::to_string(read_));
  const char* p = block_.data() + block_pos_ * kTraceRecordBytes;
  TraceRecord r;
  std::memcpy(&r.t_s, p, 8);
  std::memcpy(&r.src, p + 8, 4);
  std::memcpy(&r.dst, p + 12, 4);
  std::memcpy(&r.rtt_ms, p + 16, 4);
  ++block_pos_;
  ++read_;
  return r;
}

std::vector<std::string> partition_trace(TraceSource& source,
                                         const std::string& path_prefix,
                                         int num_nodes, int shards) {
  NC_CHECK_MSG(shards >= 1, "need at least one shard");
  NC_CHECK_MSG(num_nodes >= 2, "trace needs at least two nodes");
  NC_CHECK_MSG(source.num_nodes() <= num_nodes,
               "trace has more nodes than the partition covers");
  std::vector<std::string> paths;
  std::vector<std::unique_ptr<TraceWriter>> writers;
  paths.reserve(static_cast<std::size_t>(shards));
  writers.reserve(static_cast<std::size_t>(shards));
  try {
    for (int s = 0; s < shards; ++s) {
      std::string path = path_prefix + ".shard" + std::to_string(s);
      writers.push_back(std::make_unique<TraceWriter>(path, num_nodes));
      paths.push_back(std::move(path));
    }
    while (auto r = source.next()) {
      NC_CHECK_MSG(r->dst >= 0 && r->dst < num_nodes, "bad dst id in trace");
      writers[static_cast<std::size_t>(shard_of_node(r->dst, num_nodes, shards))]
          ->append(*r);
    }
    for (auto& w : writers) w->close();
  } catch (...) {
    // The caller never receives the paths, so it could not delete them.
    writers.clear();
    for (const std::string& p : paths) std::remove(p.c_str());
    throw;
  }
  return paths;
}

std::uint64_t export_csv(TraceSource& source, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  NC_CHECK_MSG(out.is_open(), "cannot open CSV file for writing: " + path);
  out << "t_s,src,dst,rtt_ms\n";
  std::uint64_t n = 0;
  while (auto r = source.next()) {
    out << r->t_s << ',' << r->src << ',' << r->dst << ',' << r->rtt_ms << '\n';
    ++n;
  }
  return n;
}

}  // namespace nc::lat
