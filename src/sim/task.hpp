// Task<T>: a lazy, move-only coroutine type with symmetric transfer.
//
// Tasks are the building block for simulation processes: a coroutine body may
// `co_await` other Task<T>s (nested calls), awaitable primitives (Event,
// Mailbox, Resource) and Engine::delay().  A Task does nothing until
// awaited; the awaiting coroutine is resumed exactly once when the task
// completes, with the task's value or exception delivered at the await site.
//
// Root-level tasks are driven by Engine::spawn(), which wraps them into a
// simulation process (see engine.hpp).
#pragma once

#include <cassert>
#include <coroutine>
#include <exception>
#include <type_traits>
#include <utility>

#include "sim/pool.hpp"

namespace opalsim::sim {

template <typename T>
class Task;

namespace detail {

/// PooledFrame: the whole coroutine frame (promise + locals) is allocated
/// from the thread's FramePool slab arena instead of the global heap.
struct TaskPromiseBase : PooledFrame {
  std::coroutine_handle<> continuation;  ///< resumed at final suspend
  std::exception_ptr exception;

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) const noexcept {
      auto cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };
  static_assert(std::is_trivially_destructible_v<FinalAwaiter>,
                "awaiters must stay trivially destructible (GCC 12 "
                "double-destruction of awaiter temporaries)");

  std::suspend_always initial_suspend() const noexcept { return {}; }
  FinalAwaiter final_suspend() const noexcept { return {}; }
  void unhandled_exception() noexcept { exception = std::current_exception(); }
};

template <typename T>
struct TaskPromise final : TaskPromiseBase {
  // Storage for the result; alignas/union avoided for clarity — T must be
  // default-constructible-free: we use an optional-like manual flag.
  alignas(T) unsigned char storage[sizeof(T)];
  bool has_value = false;

  Task<T> get_return_object() noexcept;

  template <typename U>
  void return_value(U&& value) {
    ::new (static_cast<void*>(storage)) T(std::forward<U>(value));
    has_value = true;
  }

  T& value() & noexcept {
    assert(has_value);
    return *std::launder(reinterpret_cast<T*>(storage));
  }

  ~TaskPromise() {
    if (has_value) value().~T();
  }
};

template <>
struct TaskPromise<void> final : TaskPromiseBase {
  Task<void> get_return_object() noexcept;
  void return_void() const noexcept {}
};

}  // namespace detail

/// Lazy coroutine task.  Move-only; owns its coroutine frame.
template <typename T = void>
class [[nodiscard]] Task {
 public:
  using promise_type = detail::TaskPromise<T>;
  using Handle = std::coroutine_handle<promise_type>;

  Task() noexcept = default;
  explicit Task(Handle h) noexcept : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      if (handle_) handle_.destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() {
    if (handle_) handle_.destroy();
  }

  bool valid() const noexcept { return static_cast<bool>(handle_); }
  bool done() const noexcept { return handle_ && handle_.done(); }

  /// Awaiter: starts the task on suspend (symmetric transfer) and resumes the
  /// awaiting coroutine at task completion.
  struct Awaiter {
    Handle handle;
    bool await_ready() const noexcept { return !handle || handle.done(); }
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<> cont) const noexcept {
      handle.promise().continuation = cont;
      return handle;
    }
    T await_resume() const {
      auto& p = handle.promise();
      if (p.exception) std::rethrow_exception(p.exception);
      if constexpr (!std::is_void_v<T>) return std::move(p.value());
    }
  };
  static_assert(std::is_trivially_destructible_v<Awaiter>,
                "awaiters must stay trivially destructible (GCC 12 "
                "double-destruction of awaiter temporaries)");

  Awaiter operator co_await() const& noexcept { return Awaiter{handle_}; }
  Awaiter operator co_await() && noexcept { return Awaiter{handle_}; }

  /// Releases ownership of the coroutine frame (used by Engine::spawn).
  Handle release() noexcept { return std::exchange(handle_, {}); }

 private:
  Handle handle_;
};

namespace detail {

template <typename T>
Task<T> TaskPromise<T>::get_return_object() noexcept {
  return Task<T>(std::coroutine_handle<TaskPromise<T>>::from_promise(*this));
}

inline Task<void> TaskPromise<void>::get_return_object() noexcept {
  return Task<void>(
      std::coroutine_handle<TaskPromise<void>>::from_promise(*this));
}

}  // namespace detail

}  // namespace opalsim::sim
