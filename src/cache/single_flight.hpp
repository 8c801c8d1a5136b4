/**
 * @file
 * In-process single-flight over striped latches: concurrent callers that
 * miss on the same key elect one winner to compute it, and the rest wait
 * on the key's stripe and then read the winner's result instead of
 * duplicating the work. The one mechanism behind both the persistent
 * cache's getOrCompute() and the composed-block memo
 * (composeBlockCached), so identical blocks racing on several pool
 * workers compose once.
 */
#ifndef GEYSER_CACHE_SINGLE_FLIGHT_HPP
#define GEYSER_CACHE_SINGLE_FLIGHT_HPP

#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_set>
#include <utility>

namespace geyser {
namespace cache {

class SingleFlight
{
  public:
    /**
     * Ownership of one key's flight. Destroying an owning lease releases
     * the key and wakes its waiters — also when the computation threw,
     * so a waiter takes over instead of hanging.
     */
    class Lease
    {
      public:
        Lease() = default;
        Lease(const Lease &) = delete;
        Lease &operator=(const Lease &) = delete;
        ~Lease();

        /** True when this caller owns the flight and must compute. */
        explicit operator bool() const { return owner_ != nullptr; }

      private:
        friend class SingleFlight;
        Lease(SingleFlight *owner, std::string key)
            : owner_(owner), key_(std::move(key)) {}

        SingleFlight *owner_ = nullptr;
        std::string key_;
    };

    SingleFlight() = default;
    SingleFlight(const SingleFlight &) = delete;
    SingleFlight &operator=(const SingleFlight &) = delete;

    /**
     * Claim `key`. While another caller holds it, wait; `onWait` (when
     * given) runs once per wait. After each wait `ready()` reports
     * whether the winner's result is now available: if so, return an
     * empty lease and let the caller read it. If not (the winner
     * failed), this caller takes over. Returns an owning lease when
     * this caller must compute. Both callbacks run without the stripe
     * lock held.
     */
    Lease claim(const std::string &key, const std::function<bool()> &ready,
                const std::function<void()> &onWait = {});

  private:
    struct Stripe
    {
        std::mutex mutex;
        std::condition_variable cv;
        std::unordered_set<std::string> inFlight;
    };

    static constexpr int kStripes = 16;

    Stripe &stripeFor(const std::string &key);
    void release(const std::string &key);

    Stripe stripes_[kStripes];
};

}  // namespace cache
}  // namespace geyser

#endif  // GEYSER_CACHE_SINGLE_FLIGHT_HPP
