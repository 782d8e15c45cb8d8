// Test helper: answer one query on a fresh Session. Each call opens its
// own session, so nothing is shared between calls — every grid query
// runs both jobs (bitstring, then skyline) and per-job counters compare
// like with like across calls.

#ifndef SKYMR_TESTS_SERVE_SESSION_TEST_UTIL_H_
#define SKYMR_TESTS_SERVE_SESSION_TEST_UTIL_H_

#include "src/serve/session.h"

namespace skymr::session_testing {

inline StatusOr<SkylineResult> SubmitOnce(const Dataset& data,
                                          const SessionOptions& options,
                                          const QuerySpec& query) {
  auto session = Session::Open(data, options);
  if (!session.ok()) {
    return session.status();
  }
  return (*session)->Submit(query);
}

}  // namespace skymr::session_testing

#endif  // SKYMR_TESTS_SERVE_SESSION_TEST_UTIL_H_
