// net::Session — one connection speaking the NDJSON protocol, on either end
// of the socket: the server runs one per accepted connection, svc::Client
// one per dialed connection.  Framing, the frame-size limit and the
// per-session read/write timeouts live here, once.
//
// Framing: newline-delimited JSON, one object per line.  read_line()
// enforces `max_line_bytes` *while buffering* — an oversized frame is
// reported as Read::Oversized with the partial data discarded, so a rogue
// peer can hold at most max_line_bytes + one chunk of memory, never an
// unbounded buffer.  A frame that stays incomplete past the per-session
// frame timeout is Read::FrameTimeout (slow-loris guard); an idle gap
// *between* frames is Read::Idle and the caller decides (servers use short
// idle slices to notice drains; the client's idle budget is its request
// deadline).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "net/io.hpp"

namespace mps::net {

struct SessionLimits {
  /// Max bytes of one request/response line (excluding '\n').
  std::size_t max_line_bytes = 8u << 20;
  /// Budget for finishing a frame whose first byte arrived (0 = none).
  double frame_timeout_s = 0.0;
  /// Budget for one blocked write (0 = none).
  double write_timeout_s = 0.0;
};

class Session {
 public:
  /// Takes ownership of `fd` (closed on destruction).
  Session(int fd, const SessionLimits& limits);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  enum class Read {
    Line,          ///< *line holds one complete frame (no '\n')
    Idle,          ///< no complete frame before `idle` expired
    FrameTimeout,  ///< a started frame did not complete in frame_timeout_s
    Oversized,     ///< frame exceeded max_line_bytes (buffer discarded)
    Eof,           ///< peer closed cleanly with no buffered frame
    Error,         ///< transport error
  };

  /// Next frame.  `idle` bounds how long to wait; already-buffered complete
  /// frames are returned without touching the fd.
  Read read_line(std::string* line, const util::Deadline& idle);

  /// Write `line` + '\n' before the earlier of `deadline` and the write
  /// timeout.
  IoStatus write_line(std::string_view line, const util::Deadline& deadline = {});

 private:
  int fd_;
  SessionLimits limits_;
  std::string buffer_;
  /// Deadline for the currently-buffering frame; re-armed per frame.
  util::Deadline frame_deadline_;
  bool frame_in_progress_ = false;
};

}  // namespace mps::net
