/**
 * @file
 * Table 2 reproduction: prints the simulated system settings (timing,
 * currents, organization) as instantiated by the models, so any drift
 * between the paper's parameters and the code is immediately visible.
 */

#include "bench_common.hh"
#include "dram/timing.hh"
#include "power/params.hh"

using namespace memscale;

int
main(int argc, char **argv)
{
    Config conf;
    SystemConfig cfg = benchConfig(argc, argv, conf);
    benchHeader(conf, "Table 2", "main system settings as instantiated", cfg);

    const TimingParams &tp = TimingParams::at(nominalFreqIndex);
    Table t({"parameter", "value", "paper"});
    t.addRow({"CPU cores", std::to_string(cfg.numCores) +
              " in-order, 4 GHz", "16 in-order, 4 GHz"});
    t.addRow({"channels", std::to_string(cfg.mem.numChannels),
              "4 DDR3"});
    t.addRow({"DIMMs", std::to_string(cfg.mem.totalDimms()) +
              " x 2GB ECC", "8 x 2GB with ECC"});
    t.addRow({"ranks/channel",
              std::to_string(cfg.mem.ranksPerChannel()), "4"});
    t.addRow({"banks/rank", std::to_string(cfg.mem.banksPerRank),
              "8"});
    t.addRow({"tRCD/tRP/tCL",
              fmt(tickToNs(tp.tRCD), 0) + "/" +
              fmt(tickToNs(tp.tRP), 0) + "/" +
              fmt(tickToNs(tp.tCL), 0) + " ns", "15/15/15 ns"});
    t.addRow({"tFAW", fmt(tickToNs(tp.tFAW), 2) + " ns",
              "20 cycles @800"});
    t.addRow({"tRTP", fmt(tickToNs(tp.tRTP), 2) + " ns",
              "5 cycles @800"});
    t.addRow({"tRAS", fmt(tickToNs(tp.tRAS), 0) + " ns",
              "28 cycles @800"});
    t.addRow({"tRRD", fmt(tickToNs(tp.tRRD), 0) + " ns",
              "4 cycles @800"});
    t.addRow({"exit fast pd (tXP)", fmt(tickToNs(tp.tXP), 0) + " ns",
              "6 ns"});
    t.addRow({"exit slow pd (tXPDLL)",
              fmt(tickToNs(tp.tXPDLL), 0) + " ns", "24 ns"});
    t.addRow({"refresh period", "64 ms (tREFI " +
              fmt(tickToUs(tp.tREFI), 2) + " us)", "64 ms"});

    const PowerParams &pp = cfg.power;
    t.addRow({"row buffer r/w current",
              fmt(pp.iReadWrite * 1000, 0) + " mA", "250 mA"});
    t.addRow({"act-pre current", fmt(pp.iActPre * 1000, 0) + " mA",
              "120 mA"});
    t.addRow({"active standby", fmt(pp.iActStandby * 1000, 0) + " mA",
              "67 mA"});
    t.addRow({"active powerdown",
              fmt(pp.iActPowerdown * 1000, 0) + " mA", "45 mA"});
    t.addRow({"precharge standby",
              fmt(pp.iPreStandby * 1000, 0) + " mA", "70 mA"});
    t.addRow({"precharge powerdown",
              fmt(pp.iPrePdFast * 1000, 0) + " mA", "45 mA"});
    t.addRow({"refresh current", fmt(pp.iRefresh * 1000, 0) + " mA",
              "240 mA"});
    t.addRow({"VDD", fmt(pp.vdd, 3) + " V", "1.575 V"});
    t.addRow({"MC power", fmt(pp.proportionality * pp.mcPeakW, 1) +
              "-" + fmt(pp.mcPeakW, 1) + " W", "7.5-15 W"});
    t.addRow({"MC voltage range", fmt(pp.mcVMin, 2) + "-" +
              fmt(pp.mcVMax, 2) + " V", "0.65-1.2 V"});
    t.addRow({"bus frequencies", "800..200 MHz, 10 points",
              "800..200 MHz, 10 points"});
    t.addRow({"relock penalty",
              fmt(tickToNs(tp.tRELOCK), 0) + " ns @800",
              "512 cycles + 28 ns"});
    t.print("Table 2: main system settings");
    return 0;
}
