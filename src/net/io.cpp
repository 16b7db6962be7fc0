#include "net/io.hpp"

#include <cerrno>

#include <poll.h>
#include <sys/socket.h>

namespace mps::net {

IoStatus wait_ready(int fd, short events, const util::Deadline& deadline) {
  for (;;) {
    pollfd pfd{fd, events, 0};
    const int rc = ::poll(&pfd, 1, deadline.poll_ms());
    if (rc < 0) {
      if (errno == EINTR) continue;
      return IoStatus::Error;
    }
    if (rc == 0) return IoStatus::Timeout;
    // Readability/writability OR an error/hangup: let the actual read/write
    // observe and classify it (POLLHUP with pending data must still read).
    return IoStatus::Ok;
  }
}

IoStatus write_all(int fd, std::string_view data, const util::Deadline& deadline) {
  while (!data.empty()) {
    const IoStatus ready = wait_ready(fd, POLLOUT, deadline);
    if (ready != IoStatus::Ok) return ready;
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return IoStatus::Error;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return IoStatus::Ok;
}

IoStatus read_chunk(int fd, std::string* buf, const util::Deadline& deadline) {
  for (;;) {
    const IoStatus ready = wait_ready(fd, POLLIN, deadline);
    if (ready != IoStatus::Ok) return ready;
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return IoStatus::Error;
    }
    if (n == 0) return IoStatus::Eof;
    buf->append(chunk, static_cast<std::size_t>(n));
    return IoStatus::Ok;
  }
}

}  // namespace mps::net
