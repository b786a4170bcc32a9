// Golden-state regression corpus: component-wise checkpoint digests for
// three canonical scenarios, committed under tests/golden/.  Each run
// re-derives the digests (section name -> CRC32 of the serialized state
// at a fixed event count) and compares them to the committed files, so
// any unintended change to a component's trajectory *or* its serialized
// layout is caught and attributed to the section that moved.
//
// To regenerate after an intentional change (once per check mode, e.g. in
// a Release and a Debug build, since the `checker` digest is per mode):
//   BUFQ_UPDATE_GOLDEN=1 ctest -R GoldenState
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "expt/experiment.h"
#include "expt/workloads.h"
#include "fabric/scenario.h"
#include "sim/checkpoint.h"

namespace bufq {
namespace {

/// Digests are pinned at a fixed mid-run event count so they cover a
/// non-trivial amount of trajectory without depending on run length.
constexpr std::uint64_t kGoldenEvents = 30'000;

using Digests = std::map<std::string, std::uint32_t>;

// The `checker` section counts the checks a run made, so it is the one
// digest that depends on whether BUFQ_CHECK sites are compiled in.  The
// corpus pins it once per check mode, as `checker` (checks compiled out)
// and `checker@checks-on`; every other section has one digest for both.
#if defined(BUFQ_ENABLE_CHECKS)
constexpr const char* kCheckerHere = "checker@checks-on";
constexpr const char* kCheckerElsewhere = "checker";
#else
constexpr const char* kCheckerHere = "checker";
constexpr const char* kCheckerElsewhere = "checker@checks-on";
#endif

std::string golden_path(const std::string& name) {
  return std::string{BUFQ_GOLDEN_DIR} + "/" + name + ".digest";
}

std::string render(const Digests& digests) {
  std::ostringstream out;
  for (const auto& [section, crc] : digests) {
    out << section << " " << std::hex << crc << std::dec << "\n";
  }
  return out.str();
}

Digests parse(std::istream& in) {
  Digests digests;
  std::string section;
  std::string crc;
  while (in >> section >> crc) {
    digests[section] = static_cast<std::uint32_t>(std::stoul(crc, nullptr, 16));
  }
  return digests;
}

void expect_matches_golden(const std::string& name, Digests derived) {
  const std::string path = golden_path(name);
  if (auto checker = derived.extract("checker"); !checker.empty()) {
    checker.key() = kCheckerHere;
    derived.insert(std::move(checker));
  }
  Digests golden;
  if (std::ifstream in{path}; in.good()) golden = parse(in);
  // The other check mode's `checker` pin is carried along, not compared.
  const auto elsewhere = golden.extract(kCheckerElsewhere);
  if (std::getenv("BUFQ_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out{path};
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    Digests pinned = derived;
    if (!elsewhere.empty()) pinned.emplace(elsewhere.key(), elsewhere.mapped());
    out << render(pinned);
    GTEST_SKIP() << "regenerated " << path;
  }
  ASSERT_FALSE(golden.empty()) << "missing golden file " << path
                               << " — run with BUFQ_UPDATE_GOLDEN=1 to create it";
  EXPECT_EQ(derived.size(), golden.size()) << "section set changed for " << name;
  for (const auto& [section, crc] : golden) {
    const auto it = derived.find(section);
    if (it == derived.end()) {
      ADD_FAILURE() << name << ": committed section '" << section << "' no longer serialized";
      continue;
    }
    EXPECT_EQ(it->second, crc) << name << ": state digest moved for section '" << section
                               << "' — the component's trajectory or layout changed";
  }
  for (const auto& [section, crc] : derived) {
    EXPECT_TRUE(golden.contains(section))
        << name << ": new section '" << section << "' not in the committed corpus";
  }
}

ExperimentConfig canonical_config(SchedulerKind scheduler, ManagerKind manager) {
  ExperimentConfig config;
  config.link_rate = paper_link_rate();
  config.buffer = ByteSize::megabytes(1.0);
  config.flows = table1_flows();
  config.scheme.scheduler = scheduler;
  config.scheme.manager = manager;
  config.warmup = Time::from_seconds(0.5);
  config.duration = Time::from_seconds(1.0);
  config.seed = 1;
  config.record_delays = true;
  return config;
}

Digests experiment_digests(const ExperimentConfig& config) {
  CheckpointTrigger trigger;
  trigger.events = kGoldenEvents;
  const CheckpointedRun run = run_experiment_with_checkpoint(config, trigger);
  return checkpoint_section_digests(run.checkpoint);
}

TEST(GoldenStateTest, Table1FifoThreshold) {
  expect_matches_golden(
      "table1_fifo_threshold",
      experiment_digests(canonical_config(SchedulerKind::kFifo, ManagerKind::kThreshold)));
}

TEST(GoldenStateTest, Table1WfqSharing) {
  expect_matches_golden(
      "table1_wfq_sharing",
      experiment_digests(canonical_config(SchedulerKind::kWfq, ManagerKind::kSharing)));
}

TEST(GoldenStateTest, FabricParkingLot) {
  fabric::FabricConfig config;
  config.topology = fabric::FabricTopologyKind::kParkingLot;
  config.size = 3;
  config.warmup = Time::from_seconds(0.5);
  config.duration = Time::from_seconds(1.0);
  config.seed = 1;

  CheckpointTrigger trigger;
  trigger.events = kGoldenEvents;
  const CheckpointedRun run = fabric::run_fabric_experiment_with_checkpoint(config, trigger);
  expect_matches_golden("fabric_parking_lot", checkpoint_section_digests(run.checkpoint));
}

}  // namespace
}  // namespace bufq
