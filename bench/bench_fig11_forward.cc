/**
 * @file
 * Figure 11 reproduction: forward-walk history-file repair across OBQ
 * size / port configurations (M-N-X: M OBQ entries, N OBQ read ports,
 * X BHT write ports), plus the OBQ-coalescing variant of FWD-32-4-2.
 */

#include "bench/bench_common.hh"
#include "common/stats.hh"

using namespace lbp;
using namespace lbp::bench;

int
main()
{
    Context ctx = Context::make("Figure 11: forward-walk HF repair");

    const SuiteResult &perfect = ctx.perfect();
    const double perfect_ipc = ipcGainPct(ctx.baseline, perfect);
    std::printf("perfect repair: %+0.2f%% IPC\n\n", perfect_ipc);

    struct Cfg
    {
        RepairPorts ports;
        bool coalesce;
    };
    const Cfg configs[] = {
        {{64, 4, 4}, false}, {{64, 4, 2}, false}, {{32, 4, 4}, false},
        {{32, 4, 2}, false}, {{16, 4, 2}, false}, {{32, 4, 2}, true},
    };

    TextTable t({"config", "MPKI redn", "IPC gain", "% of perfect"});
    for (const Cfg &c : configs) {
        SimConfig cfg = ctx.withScheme(RepairKind::ForwardWalk);
        cfg.repair.ports = c.ports;
        cfg.repair.coalesce = c.coalesce;
        const SuiteResult &res = ctx.run(cfg);
        const double ipc = ipcGainPct(ctx.baseline, res);
        std::string name = "FWD-" + std::to_string(c.ports.entries) +
                           "-" + std::to_string(c.ports.readPorts) +
                           "-" +
                           std::to_string(c.ports.bhtWritePorts);
        if (c.coalesce)
            name += "+merge";
        t.addRow({name,
                  fmtPercent(mpkiReductionPct(ctx.baseline, res) / 100.0,
                             1),
                  fmtPercent(ipc / 100.0, 2),
                  fmtPercent(retainedPct(ipc, perfect_ipc) / 100.0, 0)});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("paper: FWD-32-4-2 retains 76%% of perfect gains; "
                "coalescing adds ~3.5%%, reaching 79.5%%. Smaller OBQs "
                "and fewer ports give correspondingly less.\n");
    return reportThroughput(ctx);
}
