//===- support/FileIo.h - Whole-file artifact reads and writes --*- C++ -*-===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one file layer every artifact is read and written through. Each
/// call returns false on failure and stores "cannot read <path>: <reason>"
/// or "cannot write <path>: <reason>" in \p *Error (when given).
///
//===----------------------------------------------------------------------===//

#ifndef GREENWEB_SUPPORT_FILEIO_H
#define GREENWEB_SUPPORT_FILEIO_H

#include <string>
#include <string_view>

namespace greenweb {

/// Reads all of \p Path into \p Out (unchanged on failure).
bool readFile(const std::string &Path, std::string &Out, std::string *Error);

/// Creates or truncates \p Path and writes \p Text; fails unless every
/// byte reached the file and the close succeeded (a full disk fails).
bool writeFile(const std::string &Path, std::string_view Text,
               std::string *Error);

/// Writes "<Path>.tmp" and renames it over \p Path, so a failed write or
/// a crash leaves the previous file intact (fleet checkpoints and their
/// black boxes).
bool replaceFile(const std::string &Path, std::string_view Text,
                 std::string *Error);

} // namespace greenweb

#endif // GREENWEB_SUPPORT_FILEIO_H
