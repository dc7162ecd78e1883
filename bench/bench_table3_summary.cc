/**
 * @file
 * Table 3 reproduction: the summary comparison of every repair
 * technique — MPKI reduction, IPC gain, percent of perfect-repair gains
 * retained, and storage — over the full workload suite, all with
 * CBPw-Loop128 on top of the 7.1KB TAGE baseline.
 *
 * Paper reference points (Table 3): NoRepair 0%, Snapshot 30%,
 * RetireUpdate 41%, BackwardWalk 52%, 2PC 56%, SplitBHT 57%, 4PC 61%,
 * ForwardWalk 77%, ForwardWalk+coalescing 79%, Perfect 100%.
 */

#include "bench/bench_common.hh"
#include "common/stats.hh"

using namespace lbp;
using namespace lbp::bench;

int
main()
{
    Figure fig("Table 3: summary of repair techniques (CBPw-Loop128)");

    struct Row
    {
        std::string name;
        SimConfig cfg;
    };
    std::vector<Row> rows;

    {
        SimConfig c = fig.withScheme(RepairKind::Perfect);
        rows.push_back({"Perfect Repair", c});
    }
    {
        SimConfig c = fig.withScheme(RepairKind::NoRepair);
        rows.push_back({"No Repair", c});
    }
    {
        SimConfig c = fig.withScheme(RepairKind::Snapshot);
        c.repair.ports = {32, 8, 8};
        rows.push_back({"Snapshot (32-8-8)", c});
    }
    {
        SimConfig c = fig.withScheme(RepairKind::RetireUpdate);
        rows.push_back({"Update BHT at Retire", c});
    }
    {
        SimConfig c = fig.withScheme(RepairKind::BackwardWalk);
        c.repair.ports = {32, 4, 4};
        rows.push_back({"Backward-walk (32-4-4)", c});
    }
    {
        SimConfig c = fig.withScheme(RepairKind::LimitedPc);
        c.repair.limitedM = 2;
        c.repair.ports.bhtWritePorts = 2;
        rows.push_back({"2PC limited repair", c});
    }
    {
        SimConfig c = fig.withScheme(RepairKind::MultiStage);
        c.repair.ports = {32, 4, 4};
        rows.push_back({"Split BHT repair", c});
    }
    {
        SimConfig c = fig.withScheme(RepairKind::LimitedPc);
        c.repair.limitedM = 4;
        c.repair.ports.bhtWritePorts = 4;
        rows.push_back({"4PC limited repair", c});
    }
    {
        SimConfig c = fig.withScheme(RepairKind::ForwardWalk);
        c.repair.ports = {32, 4, 2};
        rows.push_back({"Forward-walk (32-4-2)", c});
    }
    {
        SimConfig c = fig.withScheme(RepairKind::ForwardWalk);
        c.repair.ports = {32, 4, 2};
        c.repair.coalesce = true;
        rows.push_back({"Forward-walk + coalescing", c});
    }

    std::vector<std::size_t> ids;
    for (const Row &row : rows)
        ids.push_back(fig.add(row.name, row.cfg));
    fig.run();

    // Perfect first: everything is normalized against it.
    const std::size_t perfect = ids[0];
    TextTable table({"Configuration", "MPKI redn", "IPC gain",
                     "% of perfect", "Storage (KB)"});
    table.addRow({"Baseline TAGE", "0%", "0%", "0%",
                  fmtDouble(fig.base().tage.storageKB(), 1)});

    for (std::size_t i = 1; i < rows.size(); ++i) {
        const SuiteResult &res = fig.result(ids[i]);
        const double storage = rows[i].cfg.tage.storageKB() +
                               res.runs.front().localKB +
                               res.runs.front().repairKB;
        std::vector<std::string> cells =
            fig.gainRow({rows[i].name}, ids[i], perfect);
        cells.push_back(fmtDouble(storage, 1));
        table.addRow(cells);
    }
    std::vector<std::string> last =
        fig.gainRow({"Perfect Repair"}, perfect, perfect);
    last[3] = "100%";  // the reference itself, even if it gains nothing
    last.push_back("NA");
    table.addRow(last);

    std::printf("%s\n", table.render().c_str());
    std::printf("paper (Table 3): NoRepair 0%%, Snapshot 30%%, Retire "
                "41%%, Backward 52%%, 2PC 56%%, SplitBHT 57%%, 4PC "
                "61%%, Fwd 77%%, Fwd+coal 79%%, Perfect 100%%\n");
    return fig.finish();
}
