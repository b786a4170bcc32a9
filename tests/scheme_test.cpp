// The one scheme vocabulary (core/scheme.h), table-driven over every
// SchedulerKind x ManagerKind: names round-trip through the parsers, the
// factories build every single-queue-set point, and the fabric and churn
// entry points refuse exactly the kinds they cannot run.
#include "core/scheme.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "admission/admission_controller.h"
#include "expt/churn_experiment.h"
#include "fabric/scenario.h"

namespace bufq {
namespace {

constexpr SchedulerKind kSchedulers[] = {SchedulerKind::kFifo, SchedulerKind::kWfq,
                                         SchedulerKind::kHybrid};
constexpr ManagerKind kManagers[] = {
    ManagerKind::kNone,  ManagerKind::kThreshold,        ManagerKind::kSharing,
    ManagerKind::kSelectiveSharing, ManagerKind::kDynamicThreshold, ManagerKind::kRed,
    ManagerKind::kFred,
};

constexpr std::size_t kFlows = 4;

/// The kinds every fabric hop can run.
bool fabric_runs(SchedulerKind scheduler, ManagerKind manager) {
  return scheduler != SchedulerKind::kHybrid &&
         (manager == ManagerKind::kNone || manager == ManagerKind::kThreshold ||
          manager == ManagerKind::kSharing || manager == ManagerKind::kDynamicThreshold);
}

class SchemeGridTest : public ::testing::TestWithParam<std::tuple<SchedulerKind, ManagerKind>> {
 protected:
  [[nodiscard]] SchemeConfig scheme() const {
    SchemeConfig s;
    s.scheduler = std::get<0>(GetParam());
    s.manager = std::get<1>(GetParam());
    s.headroom = ByteSize::kilobytes(10.0);
    s.sharing_classes = {SharingClass::kAdaptive, SharingClass::kReserved,
                         SharingClass::kBlocked, SharingClass::kAdaptive};
    return s;
  }
};

TEST_P(SchemeGridTest, NamesRoundTrip) {
  const SchemeConfig s = scheme();
  EXPECT_EQ(parse_scheduler(to_string(s.scheduler)), s.scheduler);
  EXPECT_EQ(parse_manager(to_string(s.manager)), s.manager);
}

TEST_P(SchemeGridTest, FactoriesBuildEverySingleQueueSetPoint) {
  const SchemeConfig s = scheme();
  const ByteSize buffer = ByteSize::kilobytes(100.0);
  auto manager = make_manager(s, buffer, std::vector<std::int64_t>(kFlows, 20'000),
                              /*rng_seed=*/7, /*packet_bytes=*/500);
  ASSERT_NE(manager, nullptr);
  EXPECT_EQ(manager->capacity(), buffer);
  const std::vector<double> weights(kFlows, 1.0);
  if (s.scheduler == SchedulerKind::kHybrid) {
    EXPECT_THROW(static_cast<void>(make_discipline(s.scheduler, *manager,
                                                   Rate::megabits_per_second(48.0), weights)),
                 std::invalid_argument);
    return;
  }
  auto discipline =
      make_discipline(s.scheduler, *manager, Rate::megabits_per_second(48.0), weights);
  ASSERT_NE(discipline, nullptr);
  // Every manager admits a first packet into an empty buffer.
  EXPECT_TRUE(discipline->enqueue(Packet{.flow = 1, .size_bytes = 500}, Time::zero()));
  EXPECT_EQ(manager->total_occupancy(), 500);
}

TEST_P(SchemeGridTest, FabricRejectsExactlyTheKindsItCannotRun) {
  fabric::FabricConfig config;
  config.topology = fabric::FabricTopologyKind::kParkingLot;
  config.size = 2;
  config.scheme = scheme();
  if (fabric_runs(config.scheme.scheduler, config.scheme.manager)) {
    EXPECT_NO_THROW(static_cast<void>(fabric::build_fabric_scenario(config)));
    return;
  }
  EXPECT_THROW(static_cast<void>(fabric::build_fabric_scenario(config)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(fabric::run_fabric_experiment(config)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(fabric::run_fabric_experiment_with_checkpoint(config)),
               std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeGridTest,
    ::testing::Combine(::testing::ValuesIn(kSchedulers), ::testing::ValuesIn(kManagers)),
    [](const ::testing::TestParamInfo<SchemeGridTest::ParamType>& point) {
      return std::string{to_string(std::get<0>(point.param))} + "_" +
             to_string(std::get<1>(point.param));
    });

TEST(SchemeTest, UnknownNamesThrowListingTheValidOnes) {
  try {
    static_cast<void>(parse_scheduler("wfg"));
    FAIL() << "'wfg' parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("'wfg'"), std::string::npos) << e.what();
    EXPECT_NE(std::string{e.what()}.find("fifo | wfq | hybrid"), std::string::npos) << e.what();
  }
  try {
    static_cast<void>(parse_manager("taildrop"));
    FAIL() << "'taildrop' parsed";
  } catch (const std::invalid_argument& e) {
    const std::string valid = "none | threshold | sharing | selective | dt | red | fred";
    EXPECT_NE(std::string{e.what()}.find(valid), std::string::npos) << e.what();
  }
  EXPECT_THROW(static_cast<void>(parse_scheduler("")), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(parse_manager("Threshold")), std::invalid_argument);
}

TEST(SchemeTest, SelectiveSharingNeedsOneClassPerFlow) {
  SchemeConfig s;
  s.manager = ManagerKind::kSelectiveSharing;
  s.sharing_classes = {SharingClass::kAdaptive};
  EXPECT_THROW(static_cast<void>(make_manager(s, ByteSize::kilobytes(100.0),
                                              std::vector<std::int64_t>(kFlows, 20'000))),
               std::invalid_argument);
}

TEST(SchemeTest, ChurnRejectsTheHybridAdmissionScheme) {
  ChurnConfig config;
  config.link_rate = Rate::megabits_per_second(48.0);
  config.buffer = ByteSize::megabytes(1.0);
  config.scheme = admission::Scheme::kHybrid;
  EXPECT_THROW(static_cast<void>(run_churn_experiment(config)), std::invalid_argument);
}

}  // namespace
}  // namespace bufq
