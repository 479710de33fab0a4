/**
 * @file
 * Fixed-buffer move-only callable for the event kernel.
 *
 * `std::function` heap-allocates for any capture larger than its
 * (implementation-defined, typically 16-byte) inline buffer and drags
 * in copy-constructibility requirements the kernel never uses.  Every
 * `schedule()` in the hot path would pay that allocation.  Every
 * callback the simulator schedules is a `[this, r]`-style closure of
 * pointers and integers, so EventCallback is one function pointer
 * plus a 48-byte buffer: a move is a memcpy and a reset nulls the
 * pointer.  A capture that needs a destructor, a real copy, or more
 * room does not compile (see accepts).
 */

#ifndef MEMSCALE_SIM_CALLBACK_HH
#define MEMSCALE_SIM_CALLBACK_HH

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace memscale
{

class EventCallback
{
  public:
    /** Captures up to this size (and max_align_t alignment) fit. */
    static constexpr std::size_t InlineCapacity = 48;

    /**
     * Whether a callable can be scheduled: it must fit the buffer and
     * be trivially copyable and destructible, because the kernel
     * moves it with a memcpy and drops it without running a
     * destructor.  Capture pointers to owned state, not the owners.
     */
    template <typename F, typename D = std::decay_t<F>>
    static constexpr bool accepts =
        sizeof(D) <= InlineCapacity &&
        alignof(D) <= alignof(std::max_align_t) &&
        std::is_trivially_copyable_v<D> &&
        std::is_trivially_destructible_v<D>;

    EventCallback() noexcept = default;

    template <typename F,
              typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, EventCallback> &&
                  std::is_invocable_r_v<void, D &>>>
    EventCallback(F &&f)   // NOLINT: implicit by design, mirrors std::function
    {
        static_assert(accepts<D>,
                      "EventCallback: the capture must fit 48 bytes and "
                      "be trivially copyable and destructible "
                      "(capture pointers, not owners)");
        // A move copies the whole buffer.  A capture-less closure
        // writes none of it, so zero it then; zeroing it for every
        // capture would make each schedule copy 48 bytes, not the
        // capture's own.
        if constexpr (std::is_empty_v<D>)
            std::memset(buf_, 0, InlineCapacity);
        ::new (static_cast<void *>(buf_)) D(std::forward<F>(f));
        invoke_ = [](void *p) { (*std::launder(static_cast<D *>(p)))(); };
    }

    EventCallback(EventCallback &&o) noexcept { take(o); }

    EventCallback &
    operator=(EventCallback &&o) noexcept
    {
        if (this != &o)
            take(o);
        return *this;
    }

    EventCallback(const EventCallback &) = delete;
    EventCallback &operator=(const EventCallback &) = delete;

    void reset() noexcept { invoke_ = nullptr; }

    void operator()() { invoke_(buf_); }

    explicit operator bool() const noexcept { return invoke_ != nullptr; }

  private:
    void
    take(EventCallback &o) noexcept
    {
        std::memcpy(buf_, o.buf_, InlineCapacity);
        invoke_ = o.invoke_;
        o.invoke_ = nullptr;
    }

    alignas(std::max_align_t) unsigned char buf_[InlineCapacity];
    void (*invoke_)(void *) = nullptr;
};

} // namespace memscale

#endif // MEMSCALE_SIM_CALLBACK_HH
