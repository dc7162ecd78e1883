/**
 * @file
 * Figure 13 reproduction: limited-PC repair as the number of repaired
 * PCs M scales, including the paper's alternative policy of
 * invalidating the non-repaired polluted entries (section 3.3 found
 * leave-as-is better on their traces; both are measured here).
 */

#include "bench/bench_common.hh"
#include "common/stats.hh"

using namespace lbp;
using namespace lbp::bench;

int
main()
{
    Figure fig("Figure 13: limited-PC repair");
    const std::size_t perfect =
        fig.add("perfect", fig.withScheme(RepairKind::Perfect));

    std::vector<std::pair<std::string, std::size_t>> rows;
    for (const unsigned m : {2u, 4u, 8u, 16u}) {
        SimConfig cfg = fig.withScheme(RepairKind::LimitedPc);
        cfg.repair.limitedM = m;
        cfg.repair.ports.bhtWritePorts = std::min(m, 4u);
        const std::string name = std::to_string(m) + "PC repair";
        rows.emplace_back(name, fig.add(name, cfg));
    }
    {
        SimConfig cfg = fig.withScheme(RepairKind::LimitedPc);
        cfg.repair.limitedM = 4;
        cfg.repair.limitedInvalidate = true;
        rows.emplace_back("4PC + invalidate rest",
                          fig.add("4PC + invalidate rest", cfg));
    }
    fig.run();

    TextTable t({"config", "MPKI redn", "IPC gain", "% of perfect"});
    for (const auto &[name, id] : rows)
        t.addRow(fig.gainRow({name}, id, perfect));
    std::printf("%s\n", t.render().c_str());
    std::printf("paper: 2PC retains 56%% and 4PC 61%% of perfect "
                "gains; even 2PC beats port-limited backward walk "
                "because the right PCs get repaired first.\n");
    return fig.finish();
}
