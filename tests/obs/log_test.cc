#include "src/obs/log.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/json_parse.h"

namespace skymr::obs {
namespace {

LogRecord MakeRecord(uint64_t query_id = 7) {
  LogRecord record;
  record.ts_us = 1234.5;
  record.severity = LogSeverity::kWarn;
  record.query_id = query_id;
  record.task = 3;
  record.attempt = 2;
  std::strcpy(record.event, "task.retry");
  std::strcpy(record.job, "mr-gpmrs");
  std::strcpy(record.tag, "size=small");
  std::strcpy(record.message, "crash injected");
  return record;
}

TEST(LogSeverityTest, NamesRoundTrip) {
  for (const LogSeverity severity :
       {LogSeverity::kDebug, LogSeverity::kInfo, LogSeverity::kWarn,
        LogSeverity::kError, LogSeverity::kFatal}) {
    auto parsed = ParseLogSeverity(LogSeverityName(severity));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), severity);
  }
  EXPECT_FALSE(ParseLogSeverity("loud").ok());
  EXPECT_FALSE(ParseLogSeverity("").ok());
}

TEST(LogLineTest, FormatIsOneJsonObject) {
  const std::string line = FormatLogLine(MakeRecord());
  EXPECT_EQ(line.find('\n'), std::string::npos);
  auto doc = ParseJson(line);
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(doc->is_object());
  EXPECT_EQ(doc->GetString("sev", ""), "warn");
  EXPECT_EQ(doc->GetString("event", ""), "task.retry");
  EXPECT_EQ(doc->GetInt("query", 0), 7);
  EXPECT_EQ(doc->GetInt("task", -1), 3);
  EXPECT_EQ(doc->GetInt("attempt", 0), 2);
}

TEST(LogLineTest, AbsentFieldsAreOmitted) {
  LogRecord record;
  record.severity = LogSeverity::kInfo;
  std::strcpy(record.event, "job.start");
  const std::string line = FormatLogLine(record);
  EXPECT_EQ(line.find("query"), std::string::npos);
  EXPECT_EQ(line.find("task"), std::string::npos);
  EXPECT_EQ(line.find("attempt"), std::string::npos);
  EXPECT_EQ(line.find("msg"), std::string::npos);
  EXPECT_EQ(line.find("tag"), std::string::npos);
  EXPECT_EQ(line.find("job\""), std::string::npos);
}

TEST(LogLineTest, ParseFormatIsFixpoint) {
  std::vector<LogRecord> records;
  records.push_back(MakeRecord());
  records.push_back(LogRecord{});
  LogRecord escaped;
  escaped.severity = LogSeverity::kError;
  std::strcpy(escaped.event, "weird\"chars");
  std::strcpy(escaped.message, "line\nbreak\tand \\ quote \"x\"");
  records.push_back(escaped);
  LogRecord big_id;
  big_id.severity = LogSeverity::kDebug;
  std::strcpy(big_id.event, "q");
  big_id.query_id = (uint64_t{1} << 53) - 1;  // largest exact JSON int
  records.push_back(big_id);
  for (const LogRecord& record : records) {
    const std::string line = FormatLogLine(record);
    auto parsed = ParseLogLine(line);
    ASSERT_TRUE(parsed.ok()) << line << ": " << parsed.status();
    EXPECT_EQ(FormatLogLine(parsed.value()), line) << line;
  }
}

TEST(LogLineTest, ParseDropsQueryIdsNoIntegerHolds) {
  for (const char* query : {"1e300", "18446744073709551616", "-3"}) {
    auto parsed = ParseLogLine(std::string(R"({"sev":"info","query":)") +
                               query + R"(,"task":1e300,"event":"x"})");
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(parsed->query_id, 0u) << query;
    EXPECT_EQ(parsed->task, -1) << query;
  }
}

TEST(LogLineTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseLogLine("").ok());
  EXPECT_FALSE(ParseLogLine("not json").ok());
  EXPECT_FALSE(ParseLogLine("[1,2]").ok());
  EXPECT_FALSE(ParseLogLine(R"({"event":"x"})").ok());  // no sev
  EXPECT_FALSE(ParseLogLine(R"({"sev":"loud","event":"x"})").ok());
  EXPECT_FALSE(ParseLogLine(R"({"sev":7,"event":"x"})").ok());
}

TEST(LogLineTest, ParseTruncatesOversizedStrings) {
  const std::string long_event(200, 'e');
  const std::string line =
      R"({"sev":"info","event":")" + long_event + R"("})";
  auto parsed = ParseLogLine(line);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(std::string(parsed->event),
            long_event.substr(0, LogRecord::kEventCapacity - 1));
}

TEST(LoggerTest, SinkSeesRecordsAtOrAboveMinSeverity) {
  std::ostringstream out;
  StreamLogSink sink(out);
  Logger::Options options;
  options.min_severity = LogSeverity::kWarn;
  Logger logger(options);
  logger.AddSink(&sink);
  logger.Log(LogSeverity::kInfo, "quiet", "below the sink floor");
  logger.Log(LogSeverity::kWarn, "loud", "at the sink floor");
  const std::string text = out.str();
  EXPECT_EQ(text.find("quiet"), std::string::npos);
  EXPECT_NE(text.find("loud"), std::string::npos);
  // The ring retains every record, below the sink floor too.
  EXPECT_EQ(logger.Snapshot().size(), 2u);
}

TEST(LoggerTest, LogQueryStampsContext) {
  Logger logger;
  QueryContext query;
  query.id = 42;
  query.tag = "size=large";
  logger.LogQuery(LogSeverity::kInfo, query, "query.start", "hello",
                  "bitstring", 5, 1);
  const std::vector<LogRecord> records = logger.Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].query_id, 42u);
  EXPECT_STREQ(records[0].tag, "size=large");
  EXPECT_STREQ(records[0].job, "bitstring");
  EXPECT_EQ(records[0].task, 5);
  EXPECT_EQ(records[0].attempt, 1);
}

TEST(LoggerTest, RingRetainsMostRecentRecords) {
  Logger::Options options;
  options.ring_capacity = 8;
  Logger logger(options);
  EXPECT_EQ(logger.ring_capacity(), 8u);
  for (int i = 0; i < 100; ++i) {
    logger.Log(LogSeverity::kInfo, "tick", std::to_string(i));
  }
  const std::vector<LogRecord> records = logger.Snapshot();
  ASSERT_EQ(records.size(), 8u);
  // Oldest first, and exactly the last 8 events.
  for (int i = 0; i < 8; ++i) {
    EXPECT_STREQ(records[i].message, std::to_string(92 + i).c_str());
  }
  EXPECT_EQ(logger.dropped(), 0);
}

TEST(LoggerTest, TimestampsAreMonotonic) {
  Logger logger;
  for (int i = 0; i < 10; ++i) {
    logger.Log(LogSeverity::kInfo, "tick", "");
  }
  const std::vector<LogRecord> records = logger.Snapshot();
  ASSERT_EQ(records.size(), 10u);
  for (size_t i = 1; i < records.size(); ++i) {
    EXPECT_GE(records[i].ts_us, records[i - 1].ts_us);
  }
}

TEST(LoggerTest, ConcurrentDropsAreCounted) {
  Logger::Options options;
  options.ring_capacity = 8;
  Logger logger(options);
  // Hammer the ring from many threads while snapshotting: every record
  // either lands in the ring or is counted as dropped, never torn.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&logger, &go, t]() {
      while (!go.load()) {
      }
      Logger::Fields fields;
      fields.query_id = static_cast<uint64_t>(t) + 1;
      for (int i = 0; i < kPerThread; ++i) {
        logger.Log(LogSeverity::kInfo, "stress", "x", fields);
      }
    });
  }
  go.store(true);
  for (int i = 0; i < 50; ++i) {
    const std::vector<LogRecord> snap = logger.Snapshot();
    EXPECT_LE(snap.size(), logger.ring_capacity());
    for (const LogRecord& record : snap) {
      EXPECT_GE(record.query_id, 1u);
      EXPECT_LE(record.query_id, static_cast<uint64_t>(kThreads));
      EXPECT_STREQ(record.event, "stress");
    }
  }
  for (std::thread& writer : writers) {
    writer.join();
  }
  // No more drops than records, and none once the writers are gone.
  const int64_t dropped = logger.dropped();
  EXPECT_LE(dropped, int64_t{kThreads} * kPerThread);
  logger.Log(LogSeverity::kInfo, "after", "x");
  EXPECT_STREQ(logger.Snapshot().back().message, "x");
  EXPECT_EQ(logger.dropped(), dropped);
}

TEST(LoggerTest, DumpFlightRecorderWritesSchemaHeader) {
  Logger logger;
  logger.Log(LogSeverity::kInfo, "a", "1");
  logger.Log(LogSeverity::kError, "b", "2");
  std::ostringstream out;
  ASSERT_TRUE(logger.DumpFlightRecorder(out, "unit-test").ok());
  std::istringstream in(out.str());
  std::string header_line;
  ASSERT_TRUE(std::getline(in, header_line));
  auto header = ParseJson(header_line);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->GetString("schema", ""), kFlightSchemaVersion);
  EXPECT_EQ(header->GetString("reason", ""), "unit-test");
  EXPECT_EQ(header->GetInt("records", -1), 2);
  std::string line;
  int records = 0;
  while (std::getline(in, line)) {
    ASSERT_TRUE(ParseLogLine(line).ok()) << line;
    ++records;
  }
  EXPECT_EQ(records, 2);
}

TEST(LoggerTest, NotifyFatalDumpsOnce) {
  const std::string path =
      testing::TempDir() + "/log_test_flight_dump.jsonl";
  Logger::Options options;
  options.crash_dump_path = path;
  Logger logger(options);
  logger.Log(LogSeverity::kInfo, "before", "the crash");
  EXPECT_FALSE(logger.crash_dumped());
  std::ostringstream err;
  std::streambuf* const old_err = std::cerr.rdbuf(err.rdbuf());
  logger.NotifyFatal("first-failure");
  EXPECT_TRUE(logger.crash_dumped());
  // A second fatal must not overwrite the first dump.
  logger.NotifyFatal("second-failure");
  std::cerr.rdbuf(old_err);
  // The outcome is reported once, as one line on stderr.
  EXPECT_EQ(err.str(), "flight recorder: dumped 256-slot ring to " + path +
                           " (first-failure)\n");
  std::ifstream dump(path);
  ASSERT_TRUE(dump.good());
  std::string header_line;
  ASSERT_TRUE(std::getline(dump, header_line));
  auto header = ParseJson(header_line);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->GetString("reason", ""), "first-failure");
  // The dump contains the pre-crash record and the fatal marker itself.
  std::string line;
  bool saw_before = false;
  bool saw_fatal = false;
  while (std::getline(dump, line)) {
    auto record = ParseLogLine(line);
    ASSERT_TRUE(record.ok());
    saw_before |= std::string(record->event) == "before";
    saw_fatal |= record->severity == LogSeverity::kFatal;
  }
  EXPECT_TRUE(saw_before);
  EXPECT_TRUE(saw_fatal);
}

TEST(LoggerTest, NotifyFatalReportsAFailedDump) {
  Logger::Options options;
  options.crash_dump_path = "/nonexistent-dir/flight.jsonl";
  Logger logger(options);
  std::ostringstream err;
  std::streambuf* const old_err = std::cerr.rdbuf(err.rdbuf());
  logger.NotifyFatal("unwritable");
  std::cerr.rdbuf(old_err);
  EXPECT_TRUE(logger.crash_dumped());
  const std::string text = err.str();
  EXPECT_EQ(text.rfind("flight recorder: dump failed: ", 0), 0u) << text;
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 1) << text;
}

TEST(LoggerTest, ConcurrentLoggingIsRaceFree) {
  Logger::Options options;
  options.ring_capacity = 64;
  Logger logger(options);
  std::ostringstream out;
  StreamLogSink sink(out);
  logger.AddSink(&sink);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&logger, t]() {
      Logger::Fields fields;
      fields.query_id = static_cast<uint64_t>(t) + 1;
      for (int i = 0; i < kPerThread; ++i) {
        logger.Log(LogSeverity::kWarn, "parallel", std::to_string(i),
                   fields);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  // Ring drops never lose sink records: every one of the 1600 records
  // reaches the sink as a whole JSON object (single-insert writes cannot
  // interleave), while the ring keeps at most its last-64 window.
  const std::vector<LogRecord> snap = logger.Snapshot();
  EXPECT_LE(snap.size(), 64u);
  std::istringstream lines(out.str());
  std::string line;
  size_t parsed = 0;
  while (std::getline(lines, line)) {
    ASSERT_TRUE(ParseLogLine(line).ok()) << line;
    ++parsed;
  }
  EXPECT_EQ(parsed, static_cast<size_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace skymr::obs
