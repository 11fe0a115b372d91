// abe-lint-fixture-path: src/core/callbacks.cpp
// Qualified and member uses of the noisy names must not trip: std::bind,
// method calls on an object, and declarations of variables/functions that
// merely reuse the words.
#include <functional>

namespace abe {

struct Endpoint {
  bool bind(int port);
  int sendto(const char* data, int size);
};

struct UdpSocketLike {};

struct WorkerPool {
  void shutdown();
};

void use_qualified(Endpoint& ep, Endpoint* ptr, WorkerPool& pool) {
  auto f = std::bind(&Endpoint::bind, &ep, 7);
  ep.bind(7);
  ptr->bind(8);
  pool.shutdown();
  UdpSocketLike socket{};
  (void)socket;
  (void)f;
}

}  // namespace abe
