# Shaded-band mean±std plot over replication seeds.
# Generated next to the error-bar CSVs; run from that directory:
#   gnuplot thisfile.gp
set datafile separator ','
set terminal pngcairo size 1200,500 enhanced
set output 'pinned_partial_errorbars.png'
set multiplot layout 1,2 title 'pinned: a time budget some seeds hit before the last eval point'
set key top right
set xlabel 'virtual time (s)'
set ylabel 'loss'
plot \
  'pinned_partial_dynamic_errorbars.csv' skip 1 using 3:($7-$8):($7+$8) with filledcurves fs transparent solid 0.25 lc 1 notitle, \
  'pinned_partial_dynamic_errorbars.csv' skip 1 using 3:7 with lines lw 2 lc 1 title 'Dynamic', \
  'pinned_partial_air_fedga_errorbars.csv' skip 1 using 3:($7-$8):($7+$8) with filledcurves fs transparent solid 0.25 lc 2 notitle, \
  'pinned_partial_air_fedga_errorbars.csv' skip 1 using 3:7 with lines lw 2 lc 2 title 'Air-FedGA'
set ylabel 'accuracy'
plot \
  'pinned_partial_dynamic_errorbars.csv' skip 1 using 3:($11-$12):($11+$12) with filledcurves fs transparent solid 0.25 lc 1 notitle, \
  'pinned_partial_dynamic_errorbars.csv' skip 1 using 3:11 with lines lw 2 lc 1 title 'Dynamic', \
  'pinned_partial_air_fedga_errorbars.csv' skip 1 using 3:($11-$12):($11+$12) with filledcurves fs transparent solid 0.25 lc 2 notitle, \
  'pinned_partial_air_fedga_errorbars.csv' skip 1 using 3:11 with lines lw 2 lc 2 title 'Air-FedGA'
unset multiplot
