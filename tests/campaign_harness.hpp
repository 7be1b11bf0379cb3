// Shared test helper: run a campaign on one worker.  At one worker the
// engine executes every run index in order on the calling thread, which
// makes it the sequential reference every parallel run must reproduce.
#pragma once

#include "casestudy/campaign.hpp"
#include "exec/engine.hpp"

namespace proxima::test {

inline casestudy::CampaignResult
run_sequential(const casestudy::CampaignConfig& config) {
  exec::EngineOptions options;
  options.workers = 1;
  return exec::CampaignEngine(options).run(config);
}

} // namespace proxima::test
