#include "service/request_queue.hpp"

#include "common/log.hpp"

namespace aw::service {

RequestQueue::RequestQueue(size_t softLimit, size_t hardLimit)
    : soft_(softLimit), hard_(hardLimit)
{
    AW_ASSERT(softLimit >= 1 && softLimit < hardLimit);
}

Admission
RequestQueue::classify() const
{
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_ || jobs_.size() >= hard_)
        return Admission::Shed;
    if (jobs_.size() >= soft_)
        return Admission::Degrade;
    return Admission::Accept;
}

bool
RequestQueue::push(Job job)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (closed_ || jobs_.size() >= hard_)
            return false;
        jobs_.push_back(std::move(job));
    }
    cv_.notify_one();
    return true;
}

bool
RequestQueue::pop(Job &out)
{
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return closed_ || !jobs_.empty(); });
    if (jobs_.empty())
        return false;
    out = std::move(jobs_.front());
    jobs_.pop_front();
    return true;
}

void
RequestQueue::close()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        closed_ = true;
    }
    cv_.notify_all();
}

size_t
RequestQueue::depth() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return jobs_.size();
}

} // namespace aw::service
