#include "campaign.hpp"

#include <algorithm>

namespace proxima::casestudy {

std::vector<trace::PartitionSeries>
partition_series(std::span<const RunSample> samples) {
  std::vector<trace::PartitionSeries> series;
  for (const RunSample& sample : samples) {
    for (const PartitionActivity& activity : sample.partitions) {
      auto it = std::find_if(series.begin(), series.end(),
                             [&](const trace::PartitionSeries& s) {
                               return s.partition == activity.partition;
                             });
      if (it == series.end()) {
        series.push_back(trace::PartitionSeries{activity.partition, {}, 0});
        it = series.end() - 1;
      }
      it->cycles.insert(it->cycles.end(), activity.cycles.begin(),
                        activity.cycles.end());
      it->overruns += activity.overruns;
    }
  }
  return series;
}

} // namespace proxima::casestudy

