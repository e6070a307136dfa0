//===- tests/support/FileIoTest.cpp - file layer tests --------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/FileIo.h"

#include <gtest/gtest.h>

#include <filesystem>

using namespace greenweb;

namespace {

std::string tempPath(const char *Name) {
  return testing::TempDir() + "gw_fileio_" + Name;
}

bool contains(const std::string &Text, const std::string &Part) {
  return Text.find(Part) != std::string::npos;
}

TEST(FileIoTest, WriteThenReadRoundTripsEveryByte) {
  std::string Path = tempPath("roundtrip.bin");
  std::string Error;
  ASSERT_TRUE(writeFile(Path, "a much longer first version\n", &Error))
      << Error;
  // The second write truncates: nothing of the first survives.
  const std::string Bytes("x\0y\n\xff", 5);
  ASSERT_TRUE(writeFile(Path, Bytes, &Error)) << Error;
  std::string Back;
  ASSERT_TRUE(readFile(Path, Back, &Error)) << Error;
  EXPECT_EQ(Back, Bytes);
  std::filesystem::remove(Path);
}

TEST(FileIoTest, MissingFileIsACannotReadNamingThePath) {
  std::string Path = tempPath("no-such-file.json");
  std::filesystem::remove(Path);
  std::string Out = "untouched", Error;
  EXPECT_FALSE(readFile(Path, Out, &Error));
  EXPECT_TRUE(contains(Error, "cannot read " + Path + ": ")) << Error;
  EXPECT_EQ(Out, "untouched");
}

TEST(FileIoTest, DirectoryIsNotAReadableFile) {
  std::string Dir = tempPath("dir-as-file");
  std::filesystem::create_directories(Dir);
  std::string Out, Error;
  EXPECT_FALSE(readFile(Dir, Out, &Error));
  EXPECT_TRUE(contains(Error, "cannot read " + Dir)) << Error;
  EXPECT_FALSE(writeFile(Dir, "text", &Error));
  EXPECT_TRUE(contains(Error, "cannot write " + Dir)) << Error;
  std::filesystem::remove(Dir);
}

TEST(FileIoTest, UnwritablePathIsACannotWriteNamingThePath) {
  std::string Path = tempPath("no-such-dir") + "/out.json";
  std::string Error;
  EXPECT_FALSE(writeFile(Path, "text", &Error));
  EXPECT_TRUE(contains(Error, "cannot write " + Path + ": ")) << Error;
  EXPECT_FALSE(replaceFile(Path, "text", &Error));
  EXPECT_TRUE(contains(Error, "cannot write " + Path + ": ")) << Error;
}

TEST(FileIoTest, WriteThatFailsOnlyAtFlushFails) {
  // /dev/full opens and buffers, then refuses the bytes with ENOSPC.
  if (!std::filesystem::exists("/dev/full"))
    GTEST_SKIP() << "no /dev/full on this host";
  std::string Error;
  EXPECT_FALSE(writeFile("/dev/full", "a few bytes", &Error));
  EXPECT_TRUE(contains(Error, "cannot write /dev/full")) << Error;
}

TEST(FileIoTest, ReplaceFileSwapsInTheNewTextAndLeavesNoTemp) {
  std::string Path = tempPath("replace.ckpt");
  std::string Error, Back;
  ASSERT_TRUE(writeFile(Path, "old", &Error)) << Error;
  ASSERT_TRUE(replaceFile(Path, "new", &Error)) << Error;
  ASSERT_TRUE(readFile(Path, Back, &Error)) << Error;
  EXPECT_EQ(Back, "new");
  EXPECT_FALSE(std::filesystem::exists(Path + ".tmp"));
  std::filesystem::remove(Path);
}

TEST(FileIoTest, FailedReplaceLeavesTheOldFileIntact) {
  std::string Path = tempPath("intact.ckpt");
  std::string Error, Back;
  ASSERT_TRUE(writeFile(Path, "complete old checkpoint", &Error)) << Error;
  // A directory where the temporary file goes makes the write fail
  // before anything touches the target.
  std::filesystem::create_directories(Path + ".tmp");
  EXPECT_FALSE(replaceFile(Path, "new", &Error));
  EXPECT_TRUE(contains(Error, "cannot write " + Path)) << Error;
  ASSERT_TRUE(readFile(Path, Back, &Error)) << Error;
  EXPECT_EQ(Back, "complete old checkpoint");
  std::filesystem::remove(Path + ".tmp");

  // A rename that fails (the target is now a directory) leaves the
  // directory as it was and no temporary file behind.
  std::filesystem::remove(Path);
  std::filesystem::create_directories(Path);
  EXPECT_FALSE(replaceFile(Path, "new", &Error));
  EXPECT_TRUE(contains(Error, "cannot write " + Path)) << Error;
  EXPECT_TRUE(std::filesystem::is_directory(Path));
  EXPECT_FALSE(std::filesystem::exists(Path + ".tmp"));
  std::filesystem::remove(Path);
}

} // namespace
