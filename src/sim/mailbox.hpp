// Predicate-matching mailbox, the substrate for PVM-style recv with
// (source, tag) wildcards.  get(pred) returns the OLDEST stored message
// matching pred, or suspends; put() delivers to the OLDEST parked getter
// whose predicate matches, else stores the message.
#pragma once

#include <cassert>
#include <coroutine>
#include <deque>
#include <functional>
#include <list>
#include <optional>
#include <utility>

#include "obs/trace.hpp"
#include "sim/audit.hpp"
#include "sim/engine.hpp"

namespace opalsim::sim {

template <typename T>
class Mailbox {
 public:
  using Predicate = std::function<bool(const T&)>;

  /// Single-consumer audit discipline (see sim/audit.hpp).  The owning
  /// layer (e.g. PVM at task spawn) sets the owner id; every consuming call
  /// site reports through note_consume and the auditor flags a second
  /// consumer.  Observation-only: never affects delivery.
  audit::MailboxDiscipline& audit_discipline() noexcept { return audit_; }

  explicit Mailbox(Engine& engine) noexcept : engine_(&engine) {}
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  std::size_t size() const noexcept { return items_.size(); }

  void put(T value) {
    for (auto it = getters_.begin(); it != getters_.end(); ++it) {
      GetAwaiter* g = *it;
      if (g->pred(value)) {
        getters_.erase(it);
        g->slot.emplace(std::move(value));
        engine_->schedule_now(g->handle);
        return;
      }
    }
    items_.push_back(std::move(value));
  }

  // Carries the predicate and the taken message in an optional<T> slot;
  // the awaiter is the parked getter node itself (getters_ points at it).
  // lint:allow(awaiter-trivial-dtor): owning awaiter by design (see above)
  struct GetAwaiter {
    Mailbox* mailbox;
    Predicate pred;
    std::optional<T> slot;
    std::coroutine_handle<> handle;

    bool await_ready() {
      auto& items = mailbox->items_;
      for (auto it = items.begin(); it != items.end(); ++it) {
        if (pred(*it)) {
          slot.emplace(std::move(*it));
          items.erase(it);
          return true;
        }
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      handle = h;
      mailbox->getters_.push_back(this);
    }
    T await_resume() {
      assert(slot.has_value());
      return std::move(*slot);
    }
  };

  /// Awaitable selective receive.
  GetAwaiter get(Predicate pred) {
    return GetAwaiter{this, std::move(pred), std::nullopt, {}};
  }
  /// Awaitable receive of any message.
  GetAwaiter get_any() {
    return get([](const T&) { return true; });
  }

  /// Removes a parked getter (timeout cancellation).  Compares pointers
  /// only — never dereferences `g` — so callers may pass a pointer whose
  /// awaiter has already been resumed and destroyed.  Returns true when the
  /// getter was still parked (and is now removed).
  bool cancel(const GetAwaiter* g) {
    for (auto it = getters_.begin(); it != getters_.end(); ++it) {
      if (*it == g) {
        getters_.erase(it);
        if (obs::enabled()) {
          obs::instant(obs::Cat::kEngine, "cancel", engine_->now(), -1);
        }
        return true;
      }
    }
    return false;
  }

  /// Read-only view of stored (undelivered) items, oldest first — what a
  /// checkpoint serializes at a quiescent boundary.
  const std::deque<T>& items() const noexcept { return items_; }

  /// Re-stores an item during checkpoint resume: appended directly, never
  /// delivered to a parked getter (restore runs before any getter could
  /// legally match it, and delivery would schedule an event the golden run
  /// never scheduled).
  void restore_item(T value) { items_.push_back(std::move(value)); }

  /// Non-blocking matching receive.
  std::optional<T> try_get(const Predicate& pred) {
    for (auto it = items_.begin(); it != items_.end(); ++it) {
      if (pred(*it)) {
        std::optional<T> v(std::move(*it));
        items_.erase(it);
        return v;
      }
    }
    return std::nullopt;
  }

 private:
  Engine* engine_;
  std::deque<T> items_;
  std::list<GetAwaiter*> getters_;
  audit::MailboxDiscipline audit_;
};

}  // namespace opalsim::sim
