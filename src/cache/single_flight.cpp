#include "cache/single_flight.hpp"

#include "io/framing.hpp"

namespace geyser {
namespace cache {

SingleFlight::Lease::~Lease()
{
    if (owner_ != nullptr)
        owner_->release(key_);
}

SingleFlight::Stripe &
SingleFlight::stripeFor(const std::string &key)
{
    const uint64_t h = io::fnv1a64(key.data(), key.size());
    return stripes_[h % kStripes];
}

SingleFlight::Lease
SingleFlight::claim(const std::string &key, const std::function<bool()> &ready,
                    const std::function<void()> &onWait)
{
    Stripe &stripe = stripeFor(key);
    std::unique_lock<std::mutex> lock(stripe.mutex);
    while (stripe.inFlight.count(key) != 0) {
        if (onWait) {
            lock.unlock();
            onWait();
            lock.lock();
        }
        stripe.cv.wait(lock, [&] { return stripe.inFlight.count(key) == 0; });
        lock.unlock();
        if (ready())
            return {};
        // The winner produced nothing (it threw, or its store failed):
        // compete to take over.
        lock.lock();
    }
    stripe.inFlight.insert(key);
    return {this, key};
}

void
SingleFlight::release(const std::string &key)
{
    Stripe &stripe = stripeFor(key);
    {
        std::lock_guard<std::mutex> lock(stripe.mutex);
        stripe.inFlight.erase(key);
    }
    stripe.cv.notify_all();
}

}  // namespace cache
}  // namespace geyser
