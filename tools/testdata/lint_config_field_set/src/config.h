// Fixture for lint_skymr.py's config-field-set rule: exactly one field,
// SessionOptions::never_set, is set by no caller.

#ifndef SKYMR_CONFIG_H_
#define SKYMR_CONFIG_H_

struct QueryContext {
  int id = 0;
};

struct ChaosSchedule {
  int seed = 0;
};

struct EngineOptions {
  int num_threads = 0;
  ChaosSchedule chaos;
  QueryContext query;
};

struct PpdOptions {
  int explicit_ppd = 0;
};

struct QuerySpec {
  QueryContext query;
};

struct SessionOptions {
  EngineOptions engine;
  PpdOptions ppd;
  // lint:allow(config-field-set) the fixture's reasoned allowance.
  int allowed = 0;
  int never_set = 0;

  bool Valid() const { return never_set >= 0; }
};

#endif  // SKYMR_CONFIG_H_
