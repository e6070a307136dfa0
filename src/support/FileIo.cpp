//===- support/FileIo.cpp - Whole-file artifact reads and writes ----------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/FileIo.h"

#include "support/StringUtils.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <unistd.h>

using namespace greenweb;

namespace {

bool cannot(std::string *Error, const char *Verb, const std::string &Path,
            int Errno) {
  return failWith(Error, formatString("cannot %s %s: %s", Verb, Path.c_str(),
                                      std::strerror(Errno)));
}

/// Writes \p Text to \p Path straight from the caller's buffer (no
/// stdio copy); the errno of the first failing step, or 0.
int writeBytes(const std::string &Path, std::string_view Text) {
  int Fd = ::open(Path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0666);
  if (Fd < 0)
    return errno;
  int Err = 0;
  for (size_t Done = 0; !Err && Done < Text.size();) {
    ssize_t N = ::write(Fd, Text.data() + Done, Text.size() - Done);
    if (N > 0)
      Done += size_t(N);
    else if (N == 0 || errno != EINTR)
      Err = N == 0 ? EIO : errno;
  }
  // Some file systems report a failed write only at close.
  if (::close(Fd) != 0 && !Err)
    Err = errno;
  return Err;
}

} // namespace

bool greenweb::readFile(const std::string &Path, std::string &Out,
                        std::string *Error) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return cannot(Error, "read", Path, errno);
  std::string Text;
  char Buf[1 << 16];
  while (size_t N = std::fread(Buf, 1, sizeof Buf, F))
    Text.append(Buf, N);
  // A directory opens but does not read (EISDIR).
  int Err = std::ferror(F) ? errno : 0;
  std::fclose(F);
  if (Err)
    return cannot(Error, "read", Path, Err);
  Out = std::move(Text);
  return true;
}

bool greenweb::writeFile(const std::string &Path, std::string_view Text,
                         std::string *Error) {
  int Err = writeBytes(Path, Text);
  return !Err || cannot(Error, "write", Path, Err);
}

bool greenweb::replaceFile(const std::string &Path, std::string_view Text,
                           std::string *Error) {
  std::string Tmp = Path + ".tmp";
  int Err = writeBytes(Tmp, Text);
  if (!Err && std::rename(Tmp.c_str(), Path.c_str()) != 0)
    Err = errno;
  if (Err)
    std::remove(Tmp.c_str());
  return !Err || cannot(Error, "write", Path, Err);
}
