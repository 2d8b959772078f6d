#include "trajgen/csv_loader.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace comove::trajgen {
namespace {

TEST(CsvLoader, ParsesBasicRecords) {
  std::istringstream in("1,0,1.5,2.5\n2,0,3.0,4.0\n1,1,1.6,2.6\n");
  Dataset d;
  const CsvLoadResult r = LoadCsvDataset(in, "test", &d);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(d.records.size(), 3u);
  EXPECT_EQ(d.records[0].id, 1);
  EXPECT_EQ(d.records[0].location, (Point{1.5, 2.5}));
  // last_time chains derived on load.
  EXPECT_EQ(d.records[2].id, 1);
  EXPECT_EQ(d.records[2].last_time, 0);
}

TEST(CsvLoader, ToleratesHeaderCommentsAndBlanks) {
  std::istringstream in(
      "# exported by fleet tool\n"
      "\n"
      "id,time,x,y\n"
      "7,3,0.0,0.0\n");
  Dataset d;
  const CsvLoadResult r = LoadCsvDataset(in, "test", &d);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(d.records.size(), 1u);
  EXPECT_EQ(r.skipped, 3u);
}

TEST(CsvLoader, SortsOutOfOrderInput) {
  std::istringstream in("1,5,0,0\n1,2,0,0\n2,3,0,0\n");
  Dataset d;
  ASSERT_TRUE(LoadCsvDataset(in, "test", &d).ok);
  EXPECT_EQ(d.records[0].time, 2);
  EXPECT_EQ(d.records[1].time, 3);
  EXPECT_EQ(d.records[2].time, 5);
  EXPECT_EQ(d.records[2].last_time, 2);
}

TEST(CsvLoader, RejectsWrongFieldCount) {
  std::istringstream in("1,2,3\n");
  Dataset d;
  const CsvLoadResult r = LoadCsvDataset(in, "test", &d);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("line 1"), std::string::npos);
}

TEST(CsvLoader, RejectsNonNumericCoordinates) {
  std::istringstream in("1,0,1.0,2.0\n2,0,east,north\n");
  Dataset d;
  const CsvLoadResult r = LoadCsvDataset(in, "test", &d);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("line 2"), std::string::npos);
}

TEST(CsvLoader, RejectsNegativeTime) {
  std::istringstream in("1,-4,1.0,2.0\n");
  Dataset d;
  EXPECT_FALSE(LoadCsvDataset(in, "test", &d).ok);
}

TEST(CsvLoader, RejectsTimeBeyondTimestampRange) {
  // 4294967301 would narrow to 5 and alias a real time.
  std::istringstream in("1,5,0.0,0.0\n2,4294967301,0.001,0.0\n");
  Dataset d;
  const CsvLoadResult r = LoadCsvDataset(in, "test", &d);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("line 2"), std::string::npos) << r.error;
}

TEST(CsvLoader, RejectsEndOfStreamTime) {
  // INT32_MAX is the watermark that closes the stream; a record there
  // would never be enumerated.
  std::istringstream in("1,2147483646,0.0,0.0\n1,2147483647,0.0,0.0\n");
  Dataset d;
  const CsvLoadResult r = LoadCsvDataset(in, "test", &d);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("line 2"), std::string::npos) << r.error;
}

TEST(CsvLoader, RejectsNonFiniteCoordinates) {
  for (const char* text : {"1,0,0.0,0.0\n2,0,nan,1.0\n",
                           "1,0,0.0,0.0\n2,0,1.0,inf\n",
                           "1,0,0.0,0.0\n2,0,-inf,1.0\n"}) {
    std::istringstream in(text);
    Dataset d;
    const CsvLoadResult r = LoadCsvDataset(in, "test", &d);
    EXPECT_FALSE(r.ok) << text;
    EXPECT_NE(r.error.find("line 2"), std::string::npos) << r.error;
  }
}

TEST(CsvLoader, RejectsConflictingDuplicateReport) {
  std::istringstream in(
      "1,5,0.0,0.0\n2,5,0.001,0.0\n3,5,1.0,1.0\n2,5,0.5,0.5\n");
  Dataset d;
  const CsvLoadResult r = LoadCsvDataset(in, "test", &d);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("line 4"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("line 2"), std::string::npos) << r.error;

  // An exact repeat of a report is harmless and loads as one record.
  std::istringstream repeat("1,5,0.0,0.0\n1,5,0.0,0.0\n");
  ASSERT_TRUE(LoadCsvDataset(repeat, "test", &d).ok);
  EXPECT_EQ(d.records.size(), 1u);
}

TEST(CsvLoader, RejectsMidFileGarbage) {
  // A non-numeric line later in the file is an error, not a header.
  std::istringstream in("1,0,1.0,2.0\nid,time,x,y\n");
  Dataset d;
  EXPECT_FALSE(LoadCsvDataset(in, "test", &d).ok);
}

TEST(CsvLoader, MissingFileReportsError) {
  Dataset d;
  const CsvLoadResult r =
      LoadCsvDatasetFile("/nonexistent/path.csv", &d);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("cannot open"), std::string::npos);
}

TEST(CsvLoader, RoundTripPreservesRecords) {
  DatasetBuilder b("orig");
  b.Add(3, 0, Point{1.25, -2.5});
  b.Add(3, 2, Point{1.5, -2.25});
  b.Add(9, 1, Point{100.0, 200.0});
  const Dataset original = b.Finalize();

  std::ostringstream out;
  WriteCsvDataset(original, out);
  std::istringstream in(out.str());
  Dataset loaded;
  ASSERT_TRUE(LoadCsvDataset(in, "copy", &loaded).ok);
  ASSERT_EQ(loaded.records.size(), original.records.size());
  for (std::size_t i = 0; i < loaded.records.size(); ++i) {
    EXPECT_EQ(loaded.records[i].id, original.records[i].id);
    EXPECT_EQ(loaded.records[i].time, original.records[i].time);
    EXPECT_EQ(loaded.records[i].last_time, original.records[i].last_time);
    EXPECT_DOUBLE_EQ(loaded.records[i].location.x,
                     original.records[i].location.x);
    EXPECT_DOUBLE_EQ(loaded.records[i].location.y,
                     original.records[i].location.y);
  }
}

TEST(CsvLoader, WhitespaceAroundFieldsTolerated) {
  std::istringstream in(" 1 , 0 , 1.5 , 2.5 \n");
  Dataset d;
  ASSERT_TRUE(LoadCsvDataset(in, "test", &d).ok);
  ASSERT_EQ(d.records.size(), 1u);
  EXPECT_EQ(d.records[0].location, (Point{1.5, 2.5}));
}

/// A valid multi-row CSV for the fuzz tests: header, comment, negative
/// and exponent coordinates, several ids and times.
const char* const kFuzzSeedCsv =
    "id,time,x,y\n"
    "# fleet export\n"
    "1,0,1.5,2.5\n"
    "2,0,-3.25,4.0\n"
    "1,1,1.75,2.625\n"
    "2,1,-3.5,4.125\n"
    "3,2,10,1e2\n"
    "12,3,0.5,-0.75\n";

/// Loads `text` and checks the loader's contract on arbitrary input:
/// either a line-numbered error, or a dataset whose records have finite
/// coordinates, times in [0, INT32_MAX) and unique (id, time) keys.
void ExpectLoadSaneOrRejected(const std::string& text) {
  std::istringstream in(text);
  Dataset d;
  const CsvLoadResult r = LoadCsvDataset(in, "fuzz", &d);
  if (!r.ok) {
    ASSERT_EQ(r.error.rfind("line ", 0), 0u) << r.error << "\n" << text;
    ASSERT_TRUE(r.error.size() > 5 &&
                std::isdigit(static_cast<unsigned char>(r.error[5])))
        << r.error << "\n" << text;
    return;
  }
  std::vector<std::pair<Timestamp, TrajectoryId>> keys;
  for (const GpsRecord& rec : d.records) {
    ASSERT_TRUE(std::isfinite(rec.location.x) &&
                std::isfinite(rec.location.y))
        << text;
    ASSERT_GE(rec.time, 0) << text;
    ASSERT_LT(rec.time, kEndOfStreamTime) << text;
    keys.emplace_back(rec.time, rec.id);
  }
  std::sort(keys.begin(), keys.end());
  ASSERT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end())
      << "duplicate (id, time) key\n" << text;
}

TEST(CsvLoaderFuzz, EveryStrictPrefixLoadsOrFailsCleanly) {
  const std::string csv = kFuzzSeedCsv;
  for (std::size_t cut = 0; cut < csv.size(); ++cut) {
    ExpectLoadSaneOrRejected(csv.substr(0, cut));
  }
}

TEST(CsvLoaderFuzz, SingleByteSubstitutionsLoadOrFailCleanly) {
  const std::string csv = kFuzzSeedCsv;
  const std::string alphabet = "0123456789-.,eni\n";
  std::mt19937_64 rng(0xC5F0F022);
  for (int i = 0; i < 4000; ++i) {
    std::string mutated = csv;
    mutated[rng() % mutated.size()] = alphabet[rng() % alphabet.size()];
    ExpectLoadSaneOrRejected(mutated);
  }
}

}  // namespace
}  // namespace comove::trajgen
