// Scale guarantees of the generalized engine (DESIGN.md §17): the flat
// ContamVector is differential-tested against the std::map oracle it
// replaced, the sharded star-64 campaign is bit-identical across --jobs,
// and the anchor ring stays bounded under adversarial churn while keeping
// the newest covered candidate promotable.
#include <gtest/gtest.h>

#include <map>

#include "common/rng.hpp"
#include "general/campaign.hpp"
#include "general/system.hpp"

namespace synergy {
namespace {

// ---- Differential fuzz: flat ContamVector vs std::map oracle ---------------

using OracleMap = std::map<std::uint32_t, MsgSeq>;

void oracle_raise(OracleMap& m, std::uint32_t source, MsgSeq sn) {
  auto [it, inserted] = m.emplace(source, sn);
  if (!inserted && it->second < sn) it->second = sn;
}

void oracle_merge(OracleMap& into, const OracleMap& other) {
  for (const auto& [source, sn] : other) oracle_raise(into, source, sn);
}

bool oracle_covered(const OracleMap& contam, const OracleMap& validated) {
  for (const auto& [source, sn] : contam) {
    const auto it = validated.find(source);
    if (it == validated.end() || it->second < sn) return false;
  }
  return true;
}

// The encoding the map representation produced: count, then (source, sn)
// in ascending source order — the flat form must stay byte-identical.
Bytes oracle_serialize(const OracleMap& m) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(m.size()));
  for (const auto& [source, sn] : m) {
    w.u32(source);
    w.u64(sn);
  }
  return w.take();
}

struct FuzzPair {
  ContamVector flat;
  OracleMap oracle;
};

FuzzPair random_pair(Rng& rng) {
  FuzzPair p;
  // Sources drawn from a small domain so collisions (max-merge paths) are
  // common; occasional large ones exercise the heap spill past
  // kContamInline.
  const auto entries = static_cast<std::size_t>(rng.uniform_int(0, 8));
  for (std::size_t i = 0; i < entries; ++i) {
    const auto source = static_cast<std::uint32_t>(rng.uniform_int(0, 9));
    const auto sn = static_cast<MsgSeq>(rng.uniform_int(0, 1'000'000));
    p.flat.raise(source, sn);
    oracle_raise(p.oracle, source, sn);
  }
  return p;
}

void expect_same(const ContamVector& flat, const OracleMap& oracle) {
  ASSERT_EQ(flat.size(), oracle.size());
  auto it = oracle.begin();
  for (const auto& [source, sn] : flat) {
    ASSERT_EQ(source, it->first);
    ASSERT_EQ(sn, it->second);
    ++it;
  }
}

TEST(ContamDifferentialFuzz, FlatMatchesMapOracle) {
  Rng rng(20260808);
  for (int iter = 0; iter < 100'000; ++iter) {
    FuzzPair a = random_pair(rng);
    const FuzzPair b = random_pair(rng);

    // Same contents, same order.
    expect_same(a.flat, a.oracle);

    // Byte-identical encoding, and the flat decoder round-trips it.
    ByteWriter w;
    contam_serialize(a.flat, w);
    const Bytes& flat_bytes = w.data();
    ASSERT_EQ(flat_bytes, oracle_serialize(a.oracle));
    ByteReader r(flat_bytes);
    ASSERT_EQ(contam_deserialize(r), a.flat);

    // Coverage agrees in both directions.
    ASSERT_EQ(contam_covered(a.flat, b.flat),
              oracle_covered(a.oracle, b.oracle));
    ASSERT_EQ(contam_covered(b.flat, a.flat),
              oracle_covered(b.oracle, a.oracle));

    // Pointwise-max merge agrees, including the changed-bit: the oracle
    // changed iff the merged map differs from the pre-merge one.
    const OracleMap before = a.oracle;
    oracle_merge(a.oracle, b.oracle);
    const bool changed = contam_merge(a.flat, b.flat);
    ASSERT_EQ(changed, a.oracle != before);
    expect_same(a.flat, a.oracle);
  }
}

// ---- Sharded star-64 campaign: determinism across --jobs -------------------

TEST(GeneralCampaignTest, Star64BitIdenticalAcrossJobs) {
  GeneralCampaignConfig config;
  config.shape = GeneralShape::kStar;
  config.size = 64;
  config.reps = 4;
  config.mission = Duration::seconds(20);
  config.verbose = true;

  config.jobs = 1;
  const GeneralCampaignResult serial = run_general_campaign(config, nullptr);
  config.jobs = 4;
  const GeneralCampaignResult sharded = run_general_campaign(config, nullptr);

  ASSERT_EQ(serial.missions.size(), config.reps);
  ASSERT_EQ(sharded.missions.size(), config.reps);
  for (std::size_t i = 0; i < config.reps; ++i) {
    const GeneralMissionReport& a = serial.missions[i];
    const GeneralMissionReport& b = sharded.missions[i];
    EXPECT_EQ(a, b) << "mission " << i << " diverged across jobs";
    // The published text (what CI diffs) matches too.
    EXPECT_EQ(format_general_mission(config, i, a),
              format_general_mission(config, i, b));
    // Every mission ran the full protocol and stayed clean.
    EXPECT_TRUE(a.ok);
    EXPECT_EQ(a.consistency_violations, 0u);
    EXPECT_EQ(a.recoverability_violations, 0u);
    EXPECT_GT(a.events, 0u);
    EXPECT_EQ(a.processes, 66u);  // 64 leaves + hub active + hub shadow
  }
  EXPECT_EQ(serial.failed, 0u);
  EXPECT_EQ(sharded.failed, 0u);
  EXPECT_EQ(serial.events_total, sharded.events_total);
}

// ---- Anchor ring under adversarial churn -----------------------------------

class RingFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    std::vector<ComponentSpec> specs = Topology::canonical().components();
    for (auto& s : specs) {
      s.internal_rate = 0.0;
      s.external_rate = 0.0;
    }
    GeneralConfig c;
    c.seed = 1;
    c.tb.interval = Duration::seconds(1'000'000);
    system_ = std::make_unique<GeneralSystem>(Topology(std::move(specs)), c);
    system_->start(TimePoint::origin() + Duration::seconds(1'000'000));
  }
  void guarded_send(std::uint64_t input) {
    system_->engine(system_->topology().active_of(0))
        .on_app_send(false, input);
    system_->engine(system_->topology().shadow_of(0))
        .on_app_send(false, input);
    system_->run_until(system_->sim().now() + Duration::seconds(1));
  }
  std::unique_ptr<GeneralSystem> system_;
};

TEST_F(RingFixture, RingBoundedAndNewestCoveredCandidatePromotable) {
  // 200 unvalidated sends: one candidate captured before each, far past
  // the ring capacity — eviction keeps the oldest (the last promotable
  // state) plus the newest window.
  constexpr int kSends = 200;
  static_assert(kSends > GeneralEngine::kMaxAnchorCandidates + 1);
  for (int i = 0; i < kSends; ++i) guarded_send(static_cast<std::uint64_t>(i));

  GeneralEngine& active = system_->engine(ProcessId{0});
  ASSERT_TRUE(active.pseudo_dirty());
  EXPECT_LE(active.anchor_candidate_count(),
            GeneralEngine::kMaxAnchorCandidates);

  // Validate a prefix that lands inside the surviving newest window: the
  // promoted anchor must be the newest covered candidate — the state just
  // before send 151 — even though candidates 2..137 were evicted.
  constexpr MsgSeq kCovered = 150;
  Message note;
  note.kind = MsgKind::kPassedAt;
  note.sender = ProcessId{1};
  note.receiver = ProcessId{0};
  note.transport_seq = 990'001;
  {
    ByteWriter w;
    contam_serialize(ContamVector{{0, kCovered}}, w);
    note.aux = w.take();
  }
  active.on_message(note);
  ASSERT_TRUE(active.pseudo_dirty());  // sends 151..200 still uncovered

  const auto& anchor = active.latest_volatile();
  ASSERT_TRUE(anchor.has_value());
  const ProcessFacts facts = general_facts_from_record(*anchor);
  std::size_t sends_in_anchor = 0;
  for (std::size_t i = 0; i < facts.sent.size(); ++i) {
    const MsgView v = facts.sent[i];
    if (v.kind == MsgKind::kInternal) {
      ++sends_in_anchor;
      EXPECT_FALSE(v.suspect) << "covered prefix must normalize to VALID";
    }
  }
  EXPECT_EQ(sends_in_anchor, kCovered);
}

TEST_F(RingFixture, FullCoverageAfterEvictionPromotesNewestCandidate) {
  for (int i = 0; i < 100; ++i) guarded_send(static_cast<std::uint64_t>(i));
  GeneralEngine& active = system_->engine(ProcessId{0});
  ASSERT_TRUE(active.pseudo_dirty());

  Message note;
  note.kind = MsgKind::kPassedAt;
  note.sender = ProcessId{1};
  note.receiver = ProcessId{0};
  note.transport_seq = 990'002;
  {
    ByteWriter w;
    contam_serialize(ContamVector{{0, 100}}, w);
    note.aux = w.take();
  }
  active.on_message(note);
  EXPECT_FALSE(active.pseudo_dirty());

  // The newest candidate (before send 100) is now covered and promoted.
  const auto& anchor = active.latest_volatile();
  ASSERT_TRUE(anchor.has_value());
  const ProcessFacts facts = general_facts_from_record(*anchor);
  std::size_t sends_in_anchor = 0;
  for (std::size_t i = 0; i < facts.sent.size(); ++i) {
    const MsgView v = facts.sent[i];
    if (v.kind == MsgKind::kInternal) ++sends_in_anchor;
  }
  EXPECT_EQ(sends_in_anchor, 99u);
}

}  // namespace
}  // namespace synergy
