/**
 * @file
 * The 202-workload evaluation suite.
 *
 * Stands in for the paper's proprietary trace list (Table 1): 7 categories
 * with the same workload counts — Server 29, HPC 8, ISPEC 34, FSPEC 64,
 * Multimedia 15, Business Productivity 16, Personal 36. Each workload is a
 * seeded synthetic program whose branch population follows the category
 * profile (loop trip ranges and entropy, if-then-else patterns, global
 * correlation, irreducible randomness, loop-body tightness, memory
 * footprint mix). Named standouts from the paper's S-curve discussion
 * (cloud-compression, tabletmark-email, sysmark-photoshop, eembc-dither)
 * are given matching profiles.
 */

#ifndef LBP_WORKLOAD_SUITE_HH
#define LBP_WORKLOAD_SUITE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "workload/program.hh"

namespace lbp {

/** Parameter envelope for one workload category. */
struct CategoryProfile
{
    std::string name;
    unsigned count = 0;  ///< workloads in this category (Table 1)

    // Branch population (per-workload ranges; drawn uniformly).
    unsigned loopsMin = 8, loopsMax = 20;
    unsigned tripMin = 4, tripMax = 64;       ///< loop period range
    double tripEntropy = 0.25;    ///< prob. a loop has a 2nd period choice
    double forwardFrac = 0.3;     ///< loops realized as forward NNN..T
    unsigned patternsMin = 4, patternsMax = 12;
    unsigned correlatedMin = 6, correlatedMax = 18;
    unsigned randomMin = 4, randomMax = 14;
    unsigned randomBiasMin = 60, randomBiasMax = 400;  ///< permille

    // Structure.
    unsigned bodyMin = 3, bodyMax = 10;   ///< loop-body straight lengths
    double nestedNoiseFrac = 0.5;  ///< prob. a loop body embeds a diamond

    // Memory behaviour: footprint class weights (normalized internally).
    double l1Weight = 8, l2Weight = 2, llcWeight = 0.7, dramWeight = 0.25;
    unsigned streamsMin = 3, streamsMax = 6;

    // Instruction mix.
    double loadFrac = 0.22, storeFrac = 0.10, fpFrac = 0.04,
           mulFrac = 0.03;
    unsigned depDistMax = 14;

    /** Multiplier applied to all branch counts for thrash-style loads. */
    double branchScale = 1.0;
};

/** The seven paper categories with tuned profiles. */
const std::vector<CategoryProfile> &categoryProfiles();

/** Options controlling suite construction. */
struct SuiteOptions
{
    std::uint64_t seed = 0x5CA1AB1Eull;
    /** Cap on total workloads (0 = full 202). Benches honour
     *  REPRO_WORKLOADS (bench/bench_common.hh). Categories are
     *  subsampled proportionally so every category stays represented. */
    unsigned maxWorkloads = 0;
};

/** Build one workload of a category. */
Program buildWorkload(const CategoryProfile &profile, unsigned index,
                      std::uint64_t suite_seed);

/** How many workloads buildSuite(@p opts) builds, without building. */
std::size_t suiteSize(const SuiteOptions &opts = {});

/**
 * Build the full (or capped) suite, in category order. The workloads
 * are built on min(resolveJobs(@p jobs), workloads) pool workers (1
 * builds inline); the result is identical at any worker count.
 */
std::vector<Program> buildSuite(const SuiteOptions &opts = {},
                                unsigned jobs = 0);

} // namespace lbp

#endif // LBP_WORKLOAD_SUITE_HH
