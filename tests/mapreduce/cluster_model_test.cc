#include "src/mapreduce/cluster_model.h"

#include <gtest/gtest.h>

namespace skymr::mr {
namespace {

TEST(LptMakespanTest, EmptyTasks) {
  EXPECT_DOUBLE_EQ(ClusterModel::LptMakespan({}, 4), 0.0);
}

TEST(LptMakespanTest, SingleSlotSumsTasks) {
  EXPECT_DOUBLE_EQ(ClusterModel::LptMakespan({1.0, 2.0, 3.0}, 1), 6.0);
}

TEST(LptMakespanTest, PerfectSplit) {
  EXPECT_DOUBLE_EQ(ClusterModel::LptMakespan({2.0, 2.0, 2.0, 2.0}, 4), 2.0);
}

TEST(LptMakespanTest, LongestTaskLowerBounds) {
  EXPECT_DOUBLE_EQ(ClusterModel::LptMakespan({10.0, 1.0, 1.0}, 8), 10.0);
}

TEST(LptMakespanTest, LptGreedyBalances) {
  // Tasks {5,4,3,3,3} on 2 slots: LPT gives {5,3,3}=9... actually
  // {5,3} = 8 and {4,3,3} = 10 -> makespan 9: 5 -> slot A, 4 -> slot B,
  // 3 -> B(7), 3 -> A(8), 3 -> B(10)? No: after 5|4, least loaded is B(4);
  // 3 -> B(7); next least is A(5); 3 -> A(8); least is B(7)... -> B(10).
  // Wait: loads 8 and 10 -> makespan 10? Recompute: sorted {5,4,3,3,3}.
  // 5->A(5), 4->B(4), 3->B(7), 3->A(8), 3->B(10). Makespan 10.
  EXPECT_DOUBLE_EQ(ClusterModel::LptMakespan({3.0, 5.0, 3.0, 4.0, 3.0}, 2),
                   10.0);
}

TEST(LptMakespanTest, ZeroSlotsClampedToOne) {
  EXPECT_DOUBLE_EQ(ClusterModel::LptMakespan({1.0, 1.0}, 0), 2.0);
}

JobMetrics MakeJob(std::vector<double> map_secs,
                   std::vector<double> reduce_secs,
                   uint64_t reduce_in_bytes) {
  JobMetrics metrics;
  for (const double s : map_secs) {
    TaskMetrics t;
    t.busy_seconds = s;
    metrics.map_tasks.push_back(t);
  }
  for (const double s : reduce_secs) {
    TaskMetrics t;
    t.busy_seconds = s;
    t.input_bytes = reduce_in_bytes;
    metrics.reduce_tasks.push_back(t);
  }
  return metrics;
}

TEST(ClusterModelTest, JobMakespanComposition) {
  // 2 map tasks of 3s on 26 slots -> 3s + 1.5s startup; 1 reduce of 5s
  // -> 6.5s; shuffle: 200 bytes over 100 Mbit/s; plus 15s job startup.
  const JobMetrics metrics = MakeJob({3.0, 3.0}, {5.0}, 200);
  EXPECT_DOUBLE_EQ(ClusterModel::JobMakespan(metrics, /*with_startup=*/true),
                   15.0 + 4.5 + 200.0 / (100e6 / 8.0) + 6.5);
}

TEST(ClusterModelTest, WithoutStartupDropsBothOverheads) {
  const JobMetrics metrics = MakeJob({3.0, 3.0}, {5.0}, 0);
  EXPECT_DOUBLE_EQ(
      ClusterModel::JobMakespan(metrics, /*with_startup=*/false), 8.0);
}

TEST(ClusterModelTest, ReduceWaveRunsOnTwentySixSlots) {
  // 13 nodes x 2 reduce slots: 26 equal reducers run in one wave, the
  // 27th starts a second one.
  const JobMetrics one_wave = MakeJob({}, std::vector<double>(26, 4.0), 0);
  const JobMetrics two_waves = MakeJob({}, std::vector<double>(27, 4.0), 0);
  EXPECT_DOUBLE_EQ(ClusterModel::JobMakespan(one_wave, false), 4.0);
  EXPECT_DOUBLE_EQ(ClusterModel::JobMakespan(two_waves, false), 8.0);
}

TEST(ClusterModelTest, ShuffleBottleneckIsMaxReducerInbound) {
  JobMetrics metrics = MakeJob({}, {0.0, 0.0}, 0);
  metrics.reduce_tasks[0].input_bytes = 5000;
  metrics.reduce_tasks[1].input_bytes = 1000;
  EXPECT_DOUBLE_EQ(ClusterModel::JobMakespan(metrics, false),
                   5000.0 / ClusterModel::kNetworkBytesPerSecond);
}

TEST(ClusterModelTest, PipelineSumsJobs) {
  const JobMetrics a = MakeJob({1.0}, {}, 0);
  const JobMetrics b = MakeJob({2.0}, {}, 0);
  EXPECT_DOUBLE_EQ(ClusterModel::PipelineMakespan({a, b}, true),
                   (15.0 + 1.0 + 1.5) + (15.0 + 2.0 + 1.5));
  EXPECT_DOUBLE_EQ(ClusterModel::PipelineMakespan({a, b}, false), 3.0);
}

TEST(ClusterModelTest, ConstantsMatchPaperCluster) {
  EXPECT_EQ(ClusterModel::kNodes, 13);
  EXPECT_DOUBLE_EQ(ClusterModel::kNetworkBytesPerSecond, 100e6 / 8.0);
}

}  // namespace
}  // namespace skymr::mr
