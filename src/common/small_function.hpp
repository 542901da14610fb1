/**
 * @file
 * Move-only callable wrapper with small-buffer optimization.
 *
 * The discrete-event engine schedules tens of millions of callbacks per
 * simulated second; std::function's copyability requirement and its
 * allocation behaviour for lambdas with more than two or three captures
 * make it the dominant cost of the hot path. SmallFunction stores any
 * callable whose size fits InlineBytes directly inside the object (no
 * allocation, no pointer chase on invoke) and falls back to the heap for
 * oversized callables. It is move-only, so captured state such as
 * unique_ptr or packet buffers can be moved into an event without a
 * copy. An inline callable that is trivially copyable and trivially
 * destructible (a lambda capturing `this`, ids and a block) moves by a
 * byte copy of the buffer and is never destroyed, so scheduling and
 * firing it make no indirect call besides the invoke itself.
 */

#ifndef EDM_COMMON_SMALL_FUNCTION_HPP
#define EDM_COMMON_SMALL_FUNCTION_HPP

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace edm {

template <typename Signature, std::size_t InlineBytes = 48>
class SmallFunction; // undefined primary; specialized for signatures

/**
 * Move-only function<R(Args...)> with InlineBytes of inline storage.
 */
template <typename R, typename... Args, std::size_t InlineBytes>
class SmallFunction<R(Args...), InlineBytes>
{
  public:
    /**
     * True if a callable of type D is stored inline, so wrapping it
     * makes no heap allocation; a hot path can static_assert it.
     */
    template <typename D>
    static constexpr bool kFitsInline =
        sizeof(D) <= InlineBytes &&
        alignof(D) <= alignof(std::max_align_t) &&
        std::is_nothrow_move_constructible_v<D>;

    SmallFunction() = default;
    SmallFunction(std::nullptr_t) {}

    template <typename F,
              typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, SmallFunction> &&
                  std::is_invocable_r_v<R, D &, Args...>>>
    SmallFunction(F &&f)
    {
        // Match std::function: a null function/member pointer produces
        // an empty wrapper, not a callable that crashes on invoke.
        if constexpr (std::is_pointer_v<D> ||
                      std::is_member_pointer_v<D>) {
            if (f == nullptr)
                return;
        }
        if constexpr (kFitsInline<D>) {
            ::new (static_cast<void *>(buf_)) D(std::forward<F>(f));
            ops_ = &kInlineOps<D>;
        } else {
            ::new (static_cast<void *>(buf_))
                D *(new D(std::forward<F>(f)));
            ops_ = &kHeapOps<D>;
        }
    }

    SmallFunction(SmallFunction &&other) noexcept { moveFrom(other); }

    SmallFunction &
    operator=(SmallFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    SmallFunction(const SmallFunction &) = delete;
    SmallFunction &operator=(const SmallFunction &) = delete;

    ~SmallFunction() { reset(); }

    /** Invoke. @pre *this is non-empty. */
    R
    operator()(Args... args)
    {
        return ops_->invoke(buf_, std::forward<Args>(args)...);
    }

    explicit operator bool() const { return ops_ != nullptr; }

    /** Destroy the held callable and return to the empty state. */
    void
    reset()
    {
        if (ops_) {
            if (!ops_->trivial)
                ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

  private:
    struct Ops
    {
        R (*invoke)(void *, Args &&...);
        void (*relocate)(void *dst, void *src); ///< move into dst; destroy src
        void (*destroy)(void *);
        /** Relocate by copying the buffer; destruction is a no-op. */
        bool trivial;
    };

    template <typename D>
    static constexpr bool kTrivial =
        std::is_trivially_copyable_v<D> &&
        std::is_trivially_destructible_v<D>;

    template <typename D>
    static constexpr Ops kInlineOps = {
        [](void *obj, Args &&...args) -> R {
            return (*std::launder(static_cast<D *>(obj)))(
                std::forward<Args>(args)...);
        },
        [](void *dst, void *src) {
            D *s = std::launder(static_cast<D *>(src));
            ::new (dst) D(std::move(*s));
            s->~D();
        },
        [](void *obj) { std::launder(static_cast<D *>(obj))->~D(); },
        kTrivial<D>,
    };

    template <typename D>
    static constexpr Ops kHeapOps = {
        [](void *obj, Args &&...args) -> R {
            return (**std::launder(static_cast<D **>(obj)))(
                std::forward<Args>(args)...);
        },
        [](void *dst, void *src) {
            ::new (dst) D *(*std::launder(static_cast<D **>(src)));
        },
        [](void *obj) { delete *std::launder(static_cast<D **>(obj)); },
        false,
    };

    void
    moveFrom(SmallFunction &other) noexcept
    {
        if (other.ops_) {
            if (other.ops_->trivial)
                std::memcpy(buf_, other.buf_, InlineBytes);
            else
                other.ops_->relocate(buf_, other.buf_);
            ops_ = other.ops_;
            other.ops_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf_[InlineBytes];
    const Ops *ops_ = nullptr;
};

} // namespace edm

#endif // EDM_COMMON_SMALL_FUNCTION_HPP
