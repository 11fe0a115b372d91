#include "runtime/mailbox.h"

#include <algorithm>

namespace abe {

void Mailbox::push(MailItem item) {
  {
    MutexLock lock(mutex_);
    item.sequence = next_sequence_++;
    queue_.push(std::move(item));
    high_water_ = std::max(high_water_, queue_.size());
  }
  cv_.notify_one();
}

bool Mailbox::pop(MailItem& out) {
  MutexLock lock(mutex_);
  for (;;) {
    // Drop cancelled timers eagerly while they are at the front.
    while (!queue_.empty() && queue_.top().kind == MailItem::Kind::kTimer &&
           std::find(cancelled_timers_.begin(), cancelled_timers_.end(),
                     queue_.top().timer_id) != cancelled_timers_.end()) {
      cancelled_timers_.erase(
          std::find(cancelled_timers_.begin(), cancelled_timers_.end(),
                    queue_.top().timer_id));
      queue_.pop();
    }
    if (queue_.empty()) {
      if (closed_) return false;
      cv_.wait(mutex_);
      continue;
    }
    const auto now = MailItem::Clock::now();
    if (queue_.top().due <= now) {
      out = queue_.top();
      queue_.pop();
      return out.kind != MailItem::Kind::kStop;
    }
    // Copy the deadline out of the queue before waiting: wait_until takes
    // it by const reference and releases mutex_ for the duration of the
    // wait, so a reference into the priority_queue's vector would dangle
    // the moment a concurrent push() reallocates it (TSan-caught
    // use-after-free).
    const auto deadline = queue_.top().due;
    cv_.wait_until(mutex_, deadline);
  }
}

void Mailbox::close() {
  {
    MutexLock lock(mutex_);
    closed_ = true;
    MailItem stop;
    stop.kind = MailItem::Kind::kStop;
    stop.due = MailItem::Clock::now();
    stop.sequence = next_sequence_++;
    queue_.push(std::move(stop));
  }
  cv_.notify_all();
}

void Mailbox::cancel_timer(std::int64_t timer_id) {
  MutexLock lock(mutex_);
  cancelled_timers_.push_back(timer_id);
}

std::size_t Mailbox::high_water() const {
  MutexLock lock(mutex_);
  return high_water_;
}

}  // namespace abe
