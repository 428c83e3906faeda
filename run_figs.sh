#!/bin/bash
cd "$(dirname "$0")" || exit 1
for fig in fig01_micro fig02_breakdown fig05_tpcc_hybrid fig06_tpce_hybrid table1_absolute_tps fig07_scalability fig08_skew fig09_hybrid_scalability fig10_logging fig11_breakdown fig12_latency; do
  echo "=== running $fig ==="
  ./target/release/$fig --secs 3 --threads 1,2,4 > results/${fig}_full.txt 2>&1
done
echo ALL-FIGS-DONE
