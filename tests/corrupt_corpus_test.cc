// Malformed-input corpus: every .txt file under tests/data/corrupt is a
// deliberately broken description. Feeding one to either parser must yield a
// clean non-OK Status with an actionable message — never an abort or a crash.
// The suite runs under ASan/TSan/UBSan in CI, so memory errors on the error
// paths are caught here too.
#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/serialize/serialize.h"
#include "src/serve/journal.h"

#ifndef PANDIA_TEST_DATA_DIR
#error "PANDIA_TEST_DATA_DIR must be defined by the build"
#endif

namespace pandia {
namespace {

std::vector<std::filesystem::path> CorpusFiles() {
  const std::filesystem::path dir =
      std::filesystem::path(PANDIA_TEST_DATA_DIR) / "corrupt";
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".txt") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(CorruptCorpus, DirectoryIsPopulated) {
  // Guard against a build that points PANDIA_TEST_DATA_DIR somewhere stale:
  // an empty corpus would make the sweep below pass vacuously.
  EXPECT_GE(CorpusFiles().size(), 10u);
}

TEST(CorruptCorpus, EveryFileYieldsCleanErrorFromBothParsers) {
  for (const std::filesystem::path& path : CorpusFiles()) {
    SCOPED_TRACE(path.filename().string());
    const StatusOr<std::string> text = ReadTextFile(path.string());
    ASSERT_TRUE(text.ok()) << text.status().ToString();

    const StatusOr<MachineDescription> machine = MachineDescriptionFromText(*text);
    EXPECT_FALSE(machine.ok());
    EXPECT_FALSE(machine.status().message().empty());

    const StatusOr<WorkloadDescription> workload =
        WorkloadDescriptionFromText(*text);
    EXPECT_FALSE(workload.ok());
    EXPECT_FALSE(workload.status().message().empty());
  }
}

// The corpus defects are distinguishable: spot-check that representative
// files produce the right code and name the offending key, so a user can fix
// the file from the message alone.
TEST(CorruptCorpus, MessagesNameTheDefect) {
  const std::filesystem::path dir =
      std::filesystem::path(PANDIA_TEST_DATA_DIR) / "corrupt";
  struct Case {
    const char* file;
    bool machine_parser;
    StatusCode code;
    const char* needle;
  };
  const Case cases[] = {
      {"empty.txt", true, StatusCode::kDataLoss, "magic"},
      {"machine_non_numeric.txt", true, StatusCode::kInvalidArgument, "core_ops"},
      {"machine_nan_capacity.txt", true, StatusCode::kInvalidArgument, "dram_bw"},
      {"machine_huge_topology.txt", true, StatusCode::kInvalidArgument, "sockets"},
      {"workload_duplicate_key.txt", false, StatusCode::kInvalidArgument, "t1"},
      {"workload_bad_policy.txt", false, StatusCode::kInvalidArgument, "quantum"},
      {"workload_out_of_range.txt", false, StatusCode::kInvalidArgument,
       "parallel_fraction"},
      {"workload_missing_key.txt", false, StatusCode::kDataLoss, "burstiness"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.file);
    const StatusOr<std::string> text = ReadTextFile((dir / c.file).string());
    ASSERT_TRUE(text.ok()) << text.status().ToString();
    const Status status = c.machine_parser
                              ? MachineDescriptionFromText(*text).status()
                              : WorkloadDescriptionFromText(*text).status();
    EXPECT_EQ(status.code(), c.code) << status.ToString();
    EXPECT_NE(status.message().find(c.needle), std::string::npos)
        << status.ToString();
  }
}

// --- journal corpus -----------------------------------------------------
//
// The journal/ subdirectory holds broken journal-v2 files and one journal in
// the retired v1 format, which must be refused. Recovery may
// truncate a torn tail in place, so every file is copied to a scratch path
// before Journal::Open sees it — the checked-in corpus is never modified.

std::string ScratchCopy(const std::filesystem::path& source) {
  const std::filesystem::path dest =
      std::filesystem::path(::testing::TempDir()) /
      ("corpus_" + source.filename().string());
  std::filesystem::copy_file(source, dest,
                             std::filesystem::copy_options::overwrite_existing);
  return dest.string();
}

TEST(CorruptCorpus, TornJournalTailRecoversByTruncation) {
  const std::filesystem::path dir =
      std::filesystem::path(PANDIA_TEST_DATA_DIR) / "corrupt" / "journal";
  StatusOr<serve::Journal> journal =
      serve::Journal::Open(ScratchCopy(dir / "torn_tail.journal"), {});
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  EXPECT_TRUE(journal->recovery().truncated_torn_tail);
  EXPECT_GT(journal->recovery().truncated_bytes, 0u);
  ASSERT_EQ(journal->recovery().records.size(), 1u);
  EXPECT_EQ(journal->recovery().records[0].request.verb, "NOTE");
  // The torn record's sequence number was never acknowledged; it is reused.
  EXPECT_EQ(journal->next_seq(), 2u);
}

TEST(CorruptCorpus, BrokenJournalsAreRefusedWithTheDefectNamed) {
  const std::filesystem::path dir =
      std::filesystem::path(PANDIA_TEST_DATA_DIR) / "corrupt" / "journal";
  struct Case {
    const char* file;
    const char* needle;
  };
  const Case cases[] = {
      {"bad_crc.journal", "journal line 2: checksum mismatch"},
      // Tail defects a tear cannot produce are refused like mid-file
      // corruption: a terminated final record with a CRC mismatch (the
      // newline proves the line landed whole) and a checksum-valid but
      // wrong-sequence final record (a writer bug, not a torn write).
      {"bad_crc_tail.journal", "journal line 3: checksum mismatch"},
      {"bad_length.journal", "the frame declares 999"},
      {"bad_seq.journal", "sequence 5 where 2 was expected"},
      {"bad_seq_tail.journal", "sequence 5 where 2 was expected"},
      {"interleaved_v1_v2.journal", "journal line 3: bad sequence number"},
      {"truncated_snapshot.journal", "snapshot record is truncated"},
      // The retired v1 format (raw request lines, no framing) is not read.
      {"v1_journal.journal", "does not start with 'pandia-journal v2'"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.file);
    const std::string scratch = ScratchCopy(dir / c.file);
    const StatusOr<std::string> before = ReadTextFile(scratch);
    ASSERT_TRUE(before.ok());
    const StatusOr<serve::Journal> journal = serve::Journal::Open(scratch, {});
    ASSERT_FALSE(journal.ok());
    EXPECT_EQ(journal.status().code(), StatusCode::kDataLoss)
        << journal.status().ToString();
    EXPECT_NE(journal.status().message().find(c.needle), std::string::npos)
        << journal.status().ToString();
    // A refused journal is left byte-for-byte as found: corruption is for
    // the operator to inspect, not for recovery to paper over.
    const StatusOr<std::string> after = ReadTextFile(scratch);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(*after, *before);
  }
}

}  // namespace
}  // namespace pandia
