#include "mdcd/views.hpp"

namespace synergy {
namespace {

// Little-endian load matching ByteWriter's encoding.
template <class T>
T load_le(const std::uint8_t* p) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) v |= T{p[i]} << (8 * i);
  return v;
}

}  // namespace

std::size_t ViewLog::validate_all() {
  std::size_t changed = 0;
  for (auto& v : views_) {
    if (v.suspect) {
      v.suspect = false;
      ++changed;
    }
  }
  return changed;
}

std::size_t ViewLog::validate_covered(MsgSeq watermark) {
  std::size_t changed = 0;
  for (auto& v : views_) {
    if (v.suspect && v.contam_sn <= watermark) {
      v.suspect = false;
      ++changed;
    }
  }
  return changed;
}

void ViewLog::serialize(ByteWriter& w) const {
  w.u32(static_cast<std::uint32_t>(views_.size()));
  for (const auto& v : views_) {
    w.u32(v.peer.value());
    w.u64(v.transport_seq);
    w.u64(v.sn);
    w.u8(static_cast<std::uint8_t>(v.kind));
    w.u8(v.suspect ? 1 : 0);
    w.u64(v.contam_sn);
  }
}

ViewLog ViewLog::deserialize(ByteReader& r) {
  ViewLog log;
  const std::uint32_t n = r.u32();
  const std::size_t start = r.position();
  // A log the input cannot hold fails the reader and decodes as empty.
  r.skip(std::size_t{n} * kEncodedEntryBytes);
  if (!r.ok()) return log;
  // Decode straight from the buffer: audits decode ~14k entries a record.
  const std::uint8_t* p = r.underlying().data() + start;
  log.views_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i, p += kEncodedEntryBytes) {
    MsgView v;
    v.peer = ProcessId{load_le<std::uint32_t>(p)};
    v.transport_seq = load_le<std::uint64_t>(p + 4);
    v.sn = load_le<std::uint64_t>(p + 12);
    v.kind = static_cast<MsgKind>(p[20]);
    v.suspect = p[21] != 0;
    v.contam_sn = load_le<std::uint64_t>(p + 22);
    log.add(v);
  }
  return log;
}

}  // namespace synergy
