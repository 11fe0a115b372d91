// abe-lint-fixture-path: src/runtime/udp_socket.cpp
// The sanctioned wrapper: the one file allowed to touch the libc socket
// surface directly.
#include <sys/socket.h>

namespace abe {

int open_wrapped() {
  int fd = ::socket(2, 2, 0);
  ::bind(fd, nullptr, 0);
  ::sendto(fd, "x", 1, 0, nullptr, 0);
  char buf[16];
  ::recvfrom(fd, buf, sizeof(buf), 0, nullptr, nullptr);
  ::shutdown(fd, SHUT_RD);
  return fd;
}

}  // namespace abe
