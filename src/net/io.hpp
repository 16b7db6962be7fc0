// net::io — EINTR-safe, deadline-aware socket I/O primitives shared by the
// server sessions, the client and connect_to.
//
// All fds stay in blocking mode; timeouts come from poll()ing before every
// read/write with the time remaining until the util::Deadline, so a peer
// that stalls mid-frame (slow loris) or stops draining its receive buffer
// can never wedge a thread forever.  Short writes and EINTR are retried
// until the deadline; results are status codes, not exceptions — the
// callers decide which statuses are errors in their protocol.
#pragma once

#include <string>
#include <string_view>

#include "util/common.hpp"

namespace mps::net {

enum class IoStatus {
  Ok,       ///< progress was made
  Eof,      ///< orderly close by the peer (reads only)
  Timeout,  ///< the deadline expired before progress
  Error,    ///< errno-level failure (reset, bad fd, ...)
};

/// Poll `fd` for `events` (POLLIN/POLLOUT) until `deadline`.  Ok means
/// ready — or an error/hangup the next read/write will observe.
IoStatus wait_ready(int fd, short events, const util::Deadline& deadline);

/// Write all of `data`, retrying EINTR/short writes, polling for writability
/// until `deadline`.  SIGPIPE is suppressed (MSG_NOSIGNAL).
IoStatus write_all(int fd, std::string_view data, const util::Deadline& deadline);

/// Read one chunk (<=4 KiB) and append it to `*buf`.  Blocks (via poll)
/// until data, EOF, error, or the deadline.
IoStatus read_chunk(int fd, std::string* buf, const util::Deadline& deadline);

}  // namespace mps::net
