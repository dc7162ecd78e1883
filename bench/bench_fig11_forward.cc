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
    Figure fig("Figure 11: forward-walk HF repair");
    const std::size_t perfect =
        fig.add("perfect", fig.withScheme(RepairKind::Perfect));

    struct Cfg
    {
        RepairPorts ports;
        bool coalesce;
    };
    const Cfg configs[] = {
        {{64, 4, 4}, false}, {{64, 4, 2}, false}, {{32, 4, 4}, false},
        {{32, 4, 2}, false}, {{16, 4, 2}, false}, {{32, 4, 2}, true},
    };
    std::vector<std::pair<std::string, std::size_t>> rows;
    for (const Cfg &c : configs) {
        SimConfig cfg = fig.withScheme(RepairKind::ForwardWalk);
        cfg.repair.ports = c.ports;
        cfg.repair.coalesce = c.coalesce;
        std::string name = "FWD-" + std::to_string(c.ports.entries) +
                           "-" + std::to_string(c.ports.readPorts) +
                           "-" +
                           std::to_string(c.ports.bhtWritePorts);
        if (c.coalesce)
            name += "+merge";
        rows.emplace_back(name, fig.add(name, cfg));
    }
    fig.run();

    std::printf("perfect repair: %+0.2f%% IPC\n\n",
                ipcGainPct(fig.baseline(), fig.result(perfect)));
    TextTable t({"config", "MPKI redn", "IPC gain", "% of perfect"});
    for (const auto &[name, id] : rows)
        t.addRow(fig.gainRow({name}, id, perfect));
    std::printf("%s\n", t.render().c_str());
    std::printf("paper: FWD-32-4-2 retains 76%% of perfect gains; "
                "coalescing adds ~3.5%%, reaching 79.5%%. Smaller OBQs "
                "and fewer ports give correspondingly less.\n");
    return fig.finish();
}
