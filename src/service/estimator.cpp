#include "service/estimator.hpp"

#include <chrono>

#include "common/log.hpp"
#include "core/result_cache.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace aw::service {

namespace {

const SiliconOracle *
oracleForCard(const std::string &name)
{
    if (name == "volta")
        return &sharedVoltaCard();
    if (name == "pascal")
        return &sharedPascalCard();
    if (name == "turing")
        return &sharedTuringCard();
    return nullptr;
}

bool
variantFromToken(const std::string &token, Variant &out)
{
    if (token == "sass")
        out = Variant::SassSim;
    else if (token == "ptx")
        out = Variant::PtxSim;
    else if (token == "hw")
        out = Variant::Hw;
    else if (token == "hybrid")
        out = Variant::Hybrid;
    else
        return false;
    return true;
}

EstimateResponse
errorResponse(const std::string &id, const char *cause,
              std::string message)
{
    EstimateResponse resp;
    resp.status = "error";
    resp.id = id;
    resp.errorCause = cause;
    // Messages embed client strings (card/variant names) whose length
    // the protocol does not bound; keep the reply within frame budget.
    if (message.size() > 512) {
        message.resize(512);
        message += "... (truncated)";
    }
    resp.errorMessage = std::move(message);
    obs::metrics().counter("service.errors").add(1);
    return resp;
}

EstimateResponse
deadlineResponse(const std::string &id)
{
    EstimateResponse resp;
    resp.status = "deadline";
    resp.id = id;
    obs::metrics().counter("service.deadline").add(1);
    return resp;
}

double
unixNowSec()
{
    return std::chrono::duration<double>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
}

/** Entry kind tag in the shared store. One kind for both positive and
 *  negative entries: the store maps a key to exactly one file, and the
 *  recorded response's own status distinguishes them. */
constexpr const char *kSharedMemoKind = "awd_memo";

} // namespace

Estimator::Estimator(const std::vector<std::string> &cards)
{
    for (const std::string &name : cards) {
        const SiliconOracle *oracle = oracleForCard(name);
        if (!oracle)
            fatal("awd: unknown card '%s' (volta, pascal, turing)",
                  name.c_str());
        if (hasCard(name))
            continue;
        auto card = std::make_unique<Card>();
        card->name = name;
        card->oracle = oracle;
        card->cal = std::make_unique<AccelWattchCalibrator>(*oracle);
        cardNames_.push_back(name);
        cards_.push_back(std::move(card));
    }
    if (cards_.empty())
        fatal("awd: no cards configured");
}

Estimator::~Estimator() = default;

bool
Estimator::hasCard(const std::string &name) const
{
    for (const auto &c : cards_)
        if (c->name == name)
            return true;
    return false;
}

Estimator::Card *
Estimator::findCard(const std::string &name)
{
    for (const auto &c : cards_)
        if (c->name == name)
            return c.get();
    return nullptr;
}

void
Estimator::warmup()
{
    for (const auto &c : cards_) {
        std::lock_guard<std::mutex> lock(c->mu);
        c->cal->variant(Variant::SassSim);
        AW_DEBUGF("service", "warmed card %s", c->name.c_str());
    }
}

EstimateResponse
Estimator::run(const Job &job)
{
    using Clock = std::chrono::steady_clock;
    const EstimateRequest &req = job.req;
    obs::metrics().counter("service.estimates").add(1);

    if (Clock::now() >= job.effectiveDeadline() ||
        (job.cancel && job.cancel->load(std::memory_order_relaxed)))
        return deadlineResponse(req.id);

    Card *card = findCard(req.card);
    if (!card)
        return errorResponse(req.id, "protocol_error",
                             "unknown card '" + req.card + "'");
    Variant variant;
    if (!variantFromToken(req.variant, variant))
        return errorResponse(req.id, "protocol_error",
                             "unknown variant '" + req.variant + "'");

    const AccelWattchModel *model = nullptr;
    {
        // First request for a (card, variant) pays the calibration; the
        // calibrator caches it, so steady state is a lock + pointer read.
        std::lock_guard<std::mutex> lock(card->mu);
        model = &card->cal->variant(variant).model;
    }

    KernelActivity act;
    if (req.hasActivity) {
        act = req.activity;
    } else {
        SimOptions opts;
        opts.freqGhz = req.freqGhz;
        const int detail = job.degrade ? 1 : req.detail;
        if (detail > 0)
            opts.detailSms = detail;
        opts.cancel = job.cancel.get();
        const GpuSimulator &sim = card->cal->simulator();
        act = variant == Variant::PtxSim
                  ? sim.runPtx(req.kernel, opts)
                  : runSassCached(sim, req.kernel, opts);
        // The watchdog flips the flag only past the deadline, so a set
        // flag means this run (or its tail) is already late. Checking
        // the flag — not lastSimRunStats().cancelled — stays correct on
        // result-cache hits, where no simulation ran at all.
        if (job.cancel && job.cancel->load(std::memory_order_relaxed))
            return deadlineResponse(req.id);
    }

    const PowerBreakdown b = model->evaluateKernel(act);
    EstimateResponse resp;
    resp.id = req.id;
    resp.powerW = b.totalW();
    resp.elapsedSec = act.elapsedSec;
    resp.energyJ = resp.powerW * act.elapsedSec;
    resp.constW = b.constW;
    resp.staticW = b.staticW;
    resp.idleSmW = b.idleSmW;
    resp.dynamicW = b.dynamicTotalW();
    if (job.degrade) {
        resp.degraded = "reduced_fidelity";
        obs::metrics().counter("service.degraded").add(1);
    }
    if (Clock::now() > job.effectiveDeadline())
        return deadlineResponse(req.id);
    obs::metrics().counter("service.ok").add(1);
    return resp;
}

bool
Estimator::memoLookup(const std::string &key, EstimateResponse &out)
{
    std::lock_guard<std::mutex> lock(memoMu_);
    auto it = memo_.find(key);
    if (it == memo_.end())
        return false;
    out = it->second;
    return true;
}

void
Estimator::memoStoreLocal(const std::string &key,
                          const EstimateResponse &resp)
{
    if (resp.status != "ok")
        return;
    std::lock_guard<std::mutex> lock(memoMu_);
    if (memo_.count(key))
        return;
    memo_.emplace(key, resp);
    memoOrder_.push_back(key);
    while (memoOrder_.size() > kMemoCapacity) {
        memo_.erase(memoOrder_.front());
        memoOrder_.pop_front();
    }
}

void
Estimator::memoStore(const std::string &key, const EstimateResponse &resp)
{
    if (resp.status != "ok")
        return;
    memoStoreLocal(key, resp);
    sharedStore(key, resp);
}

void
Estimator::setSharedMemoDir(const std::string &dir)
{
    shared_ = dir.empty() ? nullptr
                          : std::make_unique<FileEntryStore>(dir);
}

size_t
Estimator::memoEntries() const
{
    std::lock_guard<std::mutex> lock(memoMu_);
    return memo_.size();
}

void
Estimator::sharedStore(const std::string &key, const EstimateResponse &resp)
{
    if (!shared_)
        return;
    if (resp.status != "ok" && resp.status != "error")
        return;
    // Canonical form: strip every per-request field so any daemon that
    // recomputes this key publishes the identical bytes (the store is
    // content-addressed and collision-checked on the full key).
    EstimateResponse canon = resp;
    canon.id.clear();
    canon.degraded = "none";
    canon.replayed = false;
    canon.retryAfterMs = 0;
    std::string value = "{\"stored_unix\":" +
                        obs::jsonNumber(unixNowSec()) + ",\"response\":";
    appendResponseJson(canon, value);
    value += "}";
    shared_->storeText(key, kSharedMemoKind, value);
    obs::metrics().counter("service.shared_memo_writes").add(1);
}

void
Estimator::sharedStoreNegative(const std::string &key,
                               const EstimateResponse &resp)
{
    if (resp.status == "error")
        sharedStore(key, resp);
}

Estimator::SharedMemo
Estimator::sharedLookup(const std::string &key, EstimateResponse &out)
{
    if (!shared_)
        return SharedMemo::Miss;
    std::string raw;
    if (!shared_->fetchText(key, kSharedMemoKind, raw))
        return SharedMemo::Miss;
    obs::JsonValue doc;
    if (!obs::tryParseJson(raw, doc) || !doc.isObject())
        return SharedMemo::Miss;
    const obs::JsonValue *stored = doc.find("stored_unix");
    const obs::JsonValue *respV = doc.find("response");
    if (!stored || !stored->isNumber() || !respV)
        return SharedMemo::Miss;
    EstimateResponse resp;
    std::string err;
    if (!parseResponse(*respV, resp, err))
        return SharedMemo::Miss;
    if (resp.status == "ok") {
        out = std::move(resp);
        return SharedMemo::Hit;
    }
    if (resp.status == "error") {
        // Negative entry: honor it only within the TTL — a failure may
        // be transient, and the fleet should eventually retry.
        if (unixNowSec() - stored->number <= kSharedMemoNegativeTtlSec) {
            out = std::move(resp);
            return SharedMemo::NegativeHit;
        }
    }
    return SharedMemo::Miss;
}

} // namespace aw::service
