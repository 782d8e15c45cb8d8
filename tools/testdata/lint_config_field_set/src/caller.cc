#include "src/config.h"

void Configure(SessionOptions* options, QuerySpec* spec) {
  options->engine.num_threads = 1;
  options->engine.chaos.seed = 2;
  options->ppd.explicit_ppd = 3;
  spec->query.id = 4;
}
