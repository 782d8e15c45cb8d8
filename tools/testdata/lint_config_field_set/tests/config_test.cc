#include "src/config.h"

// A test's assignment is not a caller's.
void SetInTestOnly(SessionOptions* options) { options->never_set = 1; }
