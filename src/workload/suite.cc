#include "workload/suite.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/thread_pool.hh"
#include "workload/builder.hh"

namespace lbp {

namespace {

/** Names the paper calls out on the S-curve, mapped to suite slots. */
struct NamedSlot
{
    const char *category;
    unsigned index;
    const char *name;
};

constexpr NamedSlot namedSlots[] = {
    {"Server", 0, "cloud-compression"},
    {"Personal", 0, "tabletmark-email"},
    {"BP", 0, "sysmark-photoshop"},
    {"Personal", 1, "eembc-dither"},
    {"Server", 1, "spark-streaming"},
    {"Server", 2, "cassandra-txn"},
    {"HPC", 0, "hplinpack"},
    {"HPC", 1, "fft-radix"},
    {"MM", 0, "video-convert"},
    {"BP", 1, "pdf-edit"},
};

const char *
slotName(const std::string &category, unsigned index)
{
    for (const auto &slot : namedSlots)
        if (category == slot.category && index == slot.index)
            return slot.name;
    return nullptr;
}

/** Random pattern of the given period with both directions present. */
std::uint64_t
mixedPattern(Xoshiro256ss &rng, unsigned period)
{
    const std::uint64_t mask =
        period == 64 ? ~0ull : ((1ull << period) - 1);
    std::uint64_t p = rng.next() & mask;
    if (p == 0)
        p = 1;
    if (p == mask)
        p = mask >> 1;
    return p;
}

MemStream
makeStream(Xoshiro256ss &rng, const CategoryProfile &prof, unsigned idx)
{
    MemStream ms;
    const double total = prof.l1Weight + prof.l2Weight + prof.llcWeight +
                         prof.dramWeight;
    const double roll = rng.real() * total;
    if (roll < prof.l1Weight) {
        ms.footprint = 8u << 10;
    } else if (roll < prof.l1Weight + prof.l2Weight) {
        ms.footprint = 128u << 10;
    } else if (roll < prof.l1Weight + prof.l2Weight + prof.llcWeight) {
        ms.footprint = 2u << 20;
    } else {
        ms.footprint = 32u << 20;
        ms.randomized = rng.chance(0.25);
    }
    ms.stride = 8u * static_cast<std::uint32_t>(rng.range(1, 8));
    ms.randomized = ms.randomized || rng.chance(0.06);
    ms.base = static_cast<Addr>(idx + 1) << 26;
    ms.seed = rng.next();
    return ms;
}

} // namespace

const std::vector<CategoryProfile> &
categoryProfiles()
{
    static const std::vector<CategoryProfile> profiles = [] {
        std::vector<CategoryProfile> v;

        CategoryProfile server;
        server.name = "Server";
        server.count = 29;
        server.loopsMin = 12; server.loopsMax = 24;
        server.tripMin = 8; server.tripMax = 40;
        server.tripEntropy = 0.20;
        server.forwardFrac = 0.40;
        server.patternsMin = 8; server.patternsMax = 18;
        server.correlatedMin = 14; server.correlatedMax = 32;
        server.randomMin = 10; server.randomMax = 24;
        server.randomBiasMin = 40; server.randomBiasMax = 260;
        server.bodyMin = 6; server.bodyMax = 16;
        server.nestedNoiseFrac = 0.80;
        server.l1Weight = 6; server.l2Weight = 2;
        server.llcWeight = 1.2; server.dramWeight = 0.5;
        server.streamsMin = 4; server.streamsMax = 7;
        server.loadFrac = 0.25; server.storeFrac = 0.11;
        server.fpFrac = 0.01; server.mulFrac = 0.03;
        v.push_back(server);

        CategoryProfile hpc;
        hpc.name = "HPC";
        hpc.count = 8;
        hpc.loopsMin = 6; hpc.loopsMax = 13;
        hpc.tripMin = 16; hpc.tripMax = 80;
        hpc.tripEntropy = 0.10;
        hpc.forwardFrac = 0.15;
        hpc.patternsMin = 2; hpc.patternsMax = 6;
        hpc.correlatedMin = 4; hpc.correlatedMax = 10;
        hpc.randomMin = 2; hpc.randomMax = 7;
        hpc.randomBiasMin = 40; hpc.randomBiasMax = 240;
        hpc.bodyMin = 10; hpc.bodyMax = 30;
        hpc.nestedNoiseFrac = 0.70;
        hpc.l1Weight = 6; hpc.l2Weight = 2;
        hpc.llcWeight = 1.0; hpc.dramWeight = 0.6;
        hpc.streamsMin = 4; hpc.streamsMax = 8;
        hpc.loadFrac = 0.28; hpc.storeFrac = 0.10;
        hpc.fpFrac = 0.20; hpc.mulFrac = 0.04;
        v.push_back(hpc);

        CategoryProfile ispec;
        ispec.name = "ISPEC";
        ispec.count = 34;
        ispec.loopsMin = 8; ispec.loopsMax = 20;
        ispec.tripMin = 6; ispec.tripMax = 36;
        ispec.tripEntropy = 0.18;
        ispec.forwardFrac = 0.35;
        ispec.patternsMin = 6; ispec.patternsMax = 14;
        ispec.correlatedMin = 10; ispec.correlatedMax = 22;
        ispec.randomMin = 6; ispec.randomMax = 15;
        ispec.randomBiasMin = 40; ispec.randomBiasMax = 240;
        ispec.bodyMin = 5; ispec.bodyMax = 14;
        ispec.nestedNoiseFrac = 0.80;
        v.push_back(ispec);

        CategoryProfile fspec;
        fspec.name = "FSPEC";
        fspec.count = 64;
        fspec.loopsMin = 9; fspec.loopsMax = 20;
        fspec.tripMin = 12; fspec.tripMax = 64;
        fspec.tripEntropy = 0.06;
        fspec.forwardFrac = 0.15;
        fspec.patternsMin = 2; fspec.patternsMax = 8;
        fspec.correlatedMin = 5; fspec.correlatedMax = 12;
        fspec.randomMin = 2; fspec.randomMax = 7;
        fspec.randomBiasMin = 30; fspec.randomBiasMax = 200;
        fspec.bodyMin = 8; fspec.bodyMax = 24;
        fspec.nestedNoiseFrac = 0.55;
        fspec.fpFrac = 0.24; fspec.loadFrac = 0.26;
        v.push_back(fspec);

        CategoryProfile mm;
        mm.name = "MM";
        mm.count = 15;
        mm.loopsMin = 8; mm.loopsMax = 17;
        mm.tripMin = 4; mm.tripMax = 16;
        mm.tripEntropy = 0.25;
        mm.forwardFrac = 0.30;
        mm.patternsMin = 4; mm.patternsMax = 10;
        mm.correlatedMin = 6; mm.correlatedMax = 14;
        mm.randomMin = 8; mm.randomMax = 18;
        mm.randomBiasMin = 80; mm.randomBiasMax = 320;
        mm.bodyMin = 3; mm.bodyMax = 8;
        mm.nestedNoiseFrac = 0.85;
        mm.fpFrac = 0.10;
        v.push_back(mm);

        CategoryProfile bp;
        bp.name = "BP";
        bp.count = 16;
        bp.loopsMin = 8; bp.loopsMax = 19;
        bp.tripMin = 3; bp.tripMax = 10;
        bp.tripEntropy = 0.28;
        bp.forwardFrac = 0.45;
        bp.patternsMin = 6; bp.patternsMax = 15;
        bp.correlatedMin = 8; bp.correlatedMax = 18;
        bp.randomMin = 10; bp.randomMax = 22;
        bp.randomBiasMin = 80; bp.randomBiasMax = 320;
        bp.bodyMin = 3; bp.bodyMax = 7;
        bp.nestedNoiseFrac = 0.85;
        v.push_back(bp);

        CategoryProfile personal;
        personal.name = "Personal";
        personal.count = 36;
        personal.loopsMin = 7; personal.loopsMax = 22;
        personal.tripMin = 6; personal.tripMax = 40;
        personal.tripEntropy = 0.20;
        personal.forwardFrac = 0.35;
        personal.patternsMin = 4; personal.patternsMax = 12;
        personal.correlatedMin = 6; personal.correlatedMax = 17;
        personal.randomMin = 4; personal.randomMax = 16;
        personal.randomBiasMin = 40; personal.randomBiasMax = 260;
        personal.bodyMin = 5; personal.bodyMax = 14;
        personal.nestedNoiseFrac = 0.75;
        v.push_back(personal);

        return v;
    }();
    return profiles;
}

Program
buildWorkload(const CategoryProfile &profile, unsigned index,
              std::uint64_t suite_seed)
{
    // Per-workload parameter resolution.
    CategoryProfile prof = profile;
    const std::uint64_t wl_seed = hashCombine(
        suite_seed, hashCombine(splitmix64(profile.name.size() * 1315423911u ^
                                           profile.name.front() ^
                                           (profile.name.back() << 8)),
                                index));
    Xoshiro256ss rng(wl_seed);

    std::string name = profile.name + "-";
    if (index < 10)
        name += "0";
    name += std::to_string(index);

    if (const char *special = slotName(profile.name, index)) {
        name = special;
        const std::string sp(special);
        if (sp == "cloud-compression" || sp == "tabletmark-email") {
            // Very loop-predictor-sensitive: long constant trips TAGE
            // cannot span, little irreducible noise.
            prof.loopsMin = 20; prof.loopsMax = 28;
            prof.tripMin = 10; prof.tripMax = 44;
            prof.tripEntropy = 0.03;
            prof.nestedNoiseFrac = 0.9;
            prof.randomMin = 3; prof.randomMax = 6;
            prof.correlatedMin = 4; prof.correlatedMax = 8;
        } else if (sp == "sysmark-photoshop") {
            // Loop-sensitive with many distinct PCs in flight, so
            // repairs touch an above-average number of entries.
            prof.loopsMin = 22; prof.loopsMax = 30;
            prof.tripMin = 4; prof.tripMax = 24;
            prof.tripEntropy = 0.1;
            prof.bodyMin = 2; prof.bodyMax = 4;
            prof.nestedNoiseFrac = 0.8;
        } else if (sp == "eembc-dither") {
            // Thrashes the BHT/PT with sheer branch-site count.
            prof.branchScale = 4.0;
            prof.tripMin = 3; prof.tripMax = 18;
        }
    }

    const auto scaled = [&](unsigned lo, unsigned hi) {
        const double v =
            static_cast<double>(rng.range(lo, hi)) * prof.branchScale;
        return std::max(1u, static_cast<unsigned>(v));
    };

    const unsigned n_loops = scaled(prof.loopsMin, prof.loopsMax);
    const unsigned n_patterns = scaled(prof.patternsMin, prof.patternsMax);
    const unsigned n_correlated =
        scaled(prof.correlatedMin, prof.correlatedMax);
    const unsigned n_random = scaled(prof.randomMin, prof.randomMax);

    ProgramBuilder builder(name, profile.name, rng.next());
    ProgramBuilder::Mix mix;
    mix.loadFrac = prof.loadFrac;
    mix.storeFrac = prof.storeFrac;
    mix.fpFrac = prof.fpFrac;
    mix.mulFrac = prof.mulFrac;
    mix.depDistMax = prof.depDistMax;
    builder.setMix(mix);

    const unsigned n_streams =
        static_cast<unsigned>(rng.range(prof.streamsMin, prof.streamsMax));
    for (unsigned s = 0; s < n_streams; ++s)
        builder.addStream(makeStream(rng, prof, s));


    std::vector<Seg> segs;

    const auto smallStraight = [&] {
        return Seg::straight(
            static_cast<unsigned>(rng.range(1, 4)));
    };

    const auto noiseDiamond = [&] {
        // Branch nested inside a loop body. Its job is to scramble the
        // global-history signature at the loop exit (each run of the
        // loop sees a shifted/permuted history, so TAGE cannot match a
        // stable exit pattern) while staying cheap to predict itself —
        // mostly short repeating patterns whose period is coprime to
        // the trip count, some correlated branches, and a few
        // strongly-biased randoms that provide the occasional
        // mid-loop misprediction that triggers repair.
        std::vector<Seg> then_arm, else_arm;
        then_arm.push_back(smallStraight());
        else_arm.push_back(smallStraight());
        BehaviorPtr beh;
        const double roll = rng.real();
        if (roll < 0.45) {
            const unsigned period =
                static_cast<unsigned>(rng.range(2, 7));
            beh = std::make_unique<PatternBehavior>(
                mixedPattern(rng, period), period);
        } else if (roll < 0.65) {
            const std::uint64_t mask =
                (1ull << rng.range(0, 3)) | (1ull << rng.range(0, 5));
            beh = std::make_unique<CorrelatedBehavior>(
                mask, rng.chance(0.5),
                static_cast<std::uint32_t>(rng.range(0, 20)), rng.next());
        } else {
            std::uint32_t bias =
                static_cast<std::uint32_t>(rng.range(12, 60));
            if (rng.chance(0.5))
                bias = 1000 - bias;
            beh = std::make_unique<BiasedRandomBehavior>(bias,
                                                         rng.next());
        }
        return Seg::diamond(std::move(beh), std::move(then_arm),
                            std::move(else_arm));
    };

    for (unsigned i = 0; i < n_loops; ++i) {
        // ~30% of loops are "fat": long bodies with small trip counts,
        // the shape where even a retirement-updated BHT counter stays
        // current (the whole body drains the window between
        // occurrences) while global history still cannot span a run.
        const bool fat = rng.chance(0.45);
        // ~12% are micro-loops: a lone branch spinning on itself, the
        // shape that fills the OBQ with consecutive same-PC entries and
        // motivates the coalescing optimization (section 3.1).
        const bool micro = !fat && rng.chance(0.2);
        std::uint32_t p1;
        unsigned body_len;
        if (micro) {
            p1 = static_cast<std::uint32_t>(rng.range(8, 40));
            body_len = static_cast<unsigned>(rng.range(1, 2));
        } else if (fat) {
            p1 = static_cast<std::uint32_t>(rng.range(3, 12));
            body_len = static_cast<unsigned>(rng.range(60, 160));
        } else {
            p1 = static_cast<std::uint32_t>(
                rng.range(prof.tripMin, prof.tripMax));
            body_len = static_cast<unsigned>(
                rng.range(prof.bodyMin, prof.bodyMax));
        }

        std::vector<LoopExitBehavior::PeriodChoice> choices;
        choices.push_back({std::max(2u, p1), 7});
        if (rng.chance(prof.tripEntropy)) {
            const auto delta = static_cast<std::uint32_t>(
                rng.range(1, std::max(2u, p1 / 2)));
            choices.push_back({std::max(2u, p1 + delta), 2});
        }
        const bool forward = rng.chance(prof.forwardFrac);
        auto beh = std::make_unique<LoopExitBehavior>(
            !forward, std::move(choices), rng.next());

        // Fat bodies carry several embedded branches, so a wrong path
        // running through a loop touches multiple distinct BHT entries
        // (the paper's Figure 8 sees 5-16 PCs needing repair).
        std::vector<Seg> body;
        const unsigned chunks = 1 + body_len / 45;
        for (unsigned c = 0; c < chunks; ++c) {
            body.push_back(Seg::straight(
                std::max(1u, body_len / chunks)));
            if (!micro && rng.chance(prof.nestedNoiseFrac))
                body.push_back(noiseDiamond());
        }
        body.push_back(Seg::straight(static_cast<unsigned>(
            rng.range(1, std::max(2u, prof.bodyMin)))));

        segs.push_back(
            Seg::loop(std::move(beh), !forward, std::move(body)));
    }

    for (unsigned i = 0; i < n_patterns; ++i) {
        const unsigned period = static_cast<unsigned>(rng.range(2, 8));
        auto beh = std::make_unique<PatternBehavior>(
            mixedPattern(rng, period), period);
        std::vector<Seg> then_arm, else_arm;
        then_arm.push_back(smallStraight());
        else_arm.push_back(smallStraight());
        segs.push_back(Seg::diamond(std::move(beh), std::move(then_arm),
                                    std::move(else_arm)));
    }

    for (unsigned i = 0; i < n_correlated; ++i) {
        std::uint64_t mask = 0;
        const unsigned bits = static_cast<unsigned>(rng.range(2, 3));
        for (unsigned b = 0; b < bits; ++b)
            mask |= 1ull << rng.range(0, 9);
        auto beh = std::make_unique<CorrelatedBehavior>(
            mask, rng.chance(0.5),
            static_cast<std::uint32_t>(rng.range(0, 30)), rng.next());
        std::vector<Seg> then_arm, else_arm;
        then_arm.push_back(smallStraight());
        else_arm.push_back(smallStraight());
        segs.push_back(Seg::diamond(std::move(beh), std::move(then_arm),
                                    std::move(else_arm)));
    }

    for (unsigned i = 0; i < n_random; ++i) {
        std::uint32_t bias = static_cast<std::uint32_t>(
            rng.range(prof.randomBiasMin, prof.randomBiasMax));
        if (rng.chance(0.5))
            bias = 1000 - bias;
        auto beh =
            std::make_unique<BiasedRandomBehavior>(bias, rng.next());
        std::vector<Seg> then_arm, else_arm;
        then_arm.push_back(smallStraight());
        else_arm.push_back(smallStraight());
        segs.push_back(Seg::diamond(std::move(beh), std::move(then_arm),
                                    std::move(else_arm)));
    }

    // Shuffle segment order so categories do not share a fixed layout.
    for (std::size_t i = segs.size(); i > 1; --i)
        std::swap(segs[i - 1], segs[rng.below(i)]);

    return builder.build(std::move(segs));
}

namespace {

/** One workload of the suite: a category profile and its index. */
struct Slot
{
    const CategoryProfile *profile;
    unsigned index;
};

/** The workloads @p opts selects, in category order. */
std::vector<Slot>
suiteSlots(const SuiteOptions &opts)
{
    const auto &profiles = categoryProfiles();
    unsigned total = 0;
    for (const auto &prof : profiles)
        total += prof.count;

    // Each category's first quota[c] workloads, in profile order.
    std::vector<unsigned> quota;
    for (const auto &prof : profiles)
        quota.push_back(prof.count);
    if (opts.maxWorkloads > 0 && opts.maxWorkloads < total) {
        // Proportional per-category allocation with at least one
        // workload from every category, so small categories (HPC has
        // only 8 of 202) stay represented in subsampled runs.
        const unsigned cap =
            std::max<unsigned>(opts.maxWorkloads,
                               static_cast<unsigned>(profiles.size()));
        quota.assign(profiles.size(), 1u);
        unsigned used = static_cast<unsigned>(profiles.size());
        while (used < cap) {
            // Give the next slot to the category with the largest
            // remaining share.
            std::size_t best = 0;
            double best_deficit = -1.0;
            for (std::size_t c = 0; c < profiles.size(); ++c) {
                const double share =
                    static_cast<double>(profiles[c].count) /
                    static_cast<double>(total) * cap;
                const double deficit = share - quota[c];
                if (deficit > best_deficit &&
                    quota[c] < profiles[c].count) {
                    best_deficit = deficit;
                    best = c;
                }
            }
            ++quota[best];
            ++used;
        }
    }
    std::vector<Slot> slots;
    for (std::size_t c = 0; c < profiles.size(); ++c)
        for (unsigned i = 0; i < quota[c]; ++i)
            slots.push_back({&profiles[c], i});
    return slots;
}

} // namespace

std::size_t
suiteSize(const SuiteOptions &opts)
{
    return suiteSlots(opts).size();
}

std::vector<Program>
buildSuite(const SuiteOptions &opts, unsigned jobs)
{
    const std::vector<Slot> slots = suiteSlots(opts);

    // buildWorkload is a pure function of (profile, index, seed) and
    // each slot writes only its own element, so the suite is identical
    // at any worker count.
    std::vector<Program> suite(slots.size());
    const auto build = [&](std::size_t i) {
        suite[i] = buildWorkload(*slots[i].profile, slots[i].index,
                                 opts.seed);
    };
    const std::size_t workers =
        std::min<std::size_t>(resolveJobs(jobs), slots.size());
    if (workers <= 1) {
        for (std::size_t i = 0; i < slots.size(); ++i)
            build(i);
    } else {
        ThreadPool pool(static_cast<unsigned>(workers));
        pool.parallelFor(slots.size(), build);
    }
    return suite;
}

} // namespace lbp
