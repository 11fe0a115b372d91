// abe-lint-fixture-path: src/net/rogue_transport.cpp
// A transport layer that opens its own datagram socket instead of going
// through the UdpSocket wrapper: every spelling here must trip.
#include <sys/socket.h>

namespace abe {

int open_rogue_channel() {
  int fd = ::socket(2, 2, 0);       // explicit global-namespace call
  if (bind(fd, nullptr, 0) != 0) {  // bare libc spelling
    return -1;
  }
  sendto(fd, "x", 1, 0, nullptr, 0);
  char buf[16];
  recvfrom(fd, buf, sizeof(buf), 0, nullptr, nullptr);
  int on = 1;
  setsockopt(fd, 1, 2, &on, sizeof(on));  // bare socket-option call
  ::shutdown(fd, SHUT_RD);                // explicit read-side shutdown
  return fd;
}

}  // namespace abe
