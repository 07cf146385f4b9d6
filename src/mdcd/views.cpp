#include "mdcd/views.hpp"

namespace synergy {

void ViewLog::add(const MsgView& view) {
  std::uint8_t e[kEntryBytes];
  store_le<std::uint32_t>(e + kPeerAt, view.peer.value());
  store_le<std::uint64_t>(e + kSeqAt, view.transport_seq);
  store_le<std::uint64_t>(e + kSnAt, view.sn);
  e[kKindAt] = static_cast<std::uint8_t>(view.kind);
  e[kSuspectAt] = view.suspect ? 1 : 0;
  store_le<std::uint64_t>(e + kContamAt, view.contam_sn);
  entries_.insert(entries_.end(), e, e + kEntryBytes);
}

MsgView ViewLog::operator[](std::size_t i) const {
  const std::uint8_t* e = entries_.data() + i * kEntryBytes;
  return MsgView{ProcessId{load_le<std::uint32_t>(e + kPeerAt)},
                 load_le<std::uint64_t>(e + kSeqAt),
                 load_le<std::uint64_t>(e + kSnAt),
                 static_cast<MsgKind>(e[kKindAt]), e[kSuspectAt] != 0,
                 load_le<std::uint64_t>(e + kContamAt)};
}

std::size_t ViewLog::validate_all() {
  std::size_t changed = 0;
  for (std::size_t i = kSuspectAt; i < entries_.size(); i += kEntryBytes) {
    changed += entries_[i];
    entries_[i] = 0;
  }
  return changed;
}

std::size_t ViewLog::validate_covered(MsgSeq watermark) {
  std::size_t changed = 0;
  for (std::size_t i = 0; i < entries_.size(); i += kEntryBytes) {
    std::uint8_t* e = entries_.data() + i;
    if (e[kSuspectAt] != 0 && load_le<std::uint64_t>(e + kContamAt) <= watermark) {
      e[kSuspectAt] = 0;
      ++changed;
    }
  }
  return changed;
}

void ViewLog::serialize(ByteWriter& w) const {
  w.u32(static_cast<std::uint32_t>(size()));
  w.bytes_raw(entries_);
}

ViewLog ViewLog::deserialize(ByteReader& r) {
  ViewLog log;
  const std::uint32_t n = r.u32();
  const std::size_t start = r.position();
  // A log the input cannot hold fails the reader and decodes as empty.
  r.skip(std::size_t{n} * kEntryBytes);
  if (!r.ok()) return log;
  const std::uint8_t* p = r.underlying().data() + start;
  log.entries_.assign(p, p + std::size_t{n} * kEntryBytes);
  // Any nonzero suspect byte reads as suspect; store it as 1, so a
  // restored log re-encodes to the bytes a fresh one would.
  for (std::size_t i = kSuspectAt; i < log.entries_.size(); i += kEntryBytes) {
    log.entries_[i] = log.entries_[i] != 0;
  }
  return log;
}

}  // namespace synergy
