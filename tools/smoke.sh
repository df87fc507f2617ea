#!/usr/bin/env bash
# Packaging smoke checks: the README's commands, the byte identities between
# output routes and input encodings, and the CLI's exit codes, run from a
# fresh temporary directory.  BINCP is the command to run, the installed
# console script by default:
#
#   bash tools/smoke.sh
#   BINCP="python -m bincp.cli" PYTHONPATH="$PWD/src" bash tools/smoke.sh
set -eo pipefail
BINCP=${BINCP:-bincp}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"
FIG=$(python -c "from bincp.data import figure1_path; print(figure1_path())")
DEMO=$(python -c "from bincp.data import demo_test_path; print(demo_test_path())")
$BINCP evaluate --calibration "$FIG" --test "$DEMO" --positive-class B \
    --epsilon 0.1 --epsilon 0.2 --format text > evaluate.txt
$BINCP predict --calibration "$FIG" --test "$DEMO" --positive-class B \
    --epsilon 0.2 > stdout.csv
test -s evaluate.txt
test -s stdout.csv
# Every output goes through one routine: the regions written to
# stdout, to --out and to --regions-out are the same bytes.
$BINCP predict --calibration "$FIG" --test "$DEMO" --positive-class B \
    --epsilon 0.2 --out predict.csv
cmp stdout.csv predict.csv
$BINCP evaluate --calibration "$FIG" --test "$DEMO" --positive-class B \
    --epsilon 0.2 --out evaluate-regions.txt --regions-out regions.csv
cmp predict.csv regions.csv
$BINCP synth --out train.csv --n-per-class 200 --separation 2.0 --seed 1
test -s train.csv
$BINCP synth --out test.csv --n-per-class 50 --separation 2.0 --seed 2
test -s test.csv
$BINCP evaluate --train train.csv --test test.csv --positive-class positive \
    --measure knn-prob --k 5 --split-fraction 0.7 --split-seed 0 \
    --format json --out report.json
test -s report.json
# The same training rows with CRLF line ends go through the csv
# module instead of numpy's C reader; the report must not change.
sed 's/$/\r/' train.csv > train-crlf.csv
$BINCP evaluate --train train-crlf.csv --test test.csv --positive-class positive \
    --measure knn-prob --k 5 --split-fraction 0.7 --split-seed 0 \
    --format json --out report-crlf.json
cmp report.json report-crlf.json
# An input may be a pipe, here a process substitution; it is read
# once, and the report must not change.
$BINCP evaluate --train <(cat train-crlf.csv) --test test.csv --positive-class positive \
    --measure knn-prob --k 5 --split-fraction 0.7 --split-seed 0 \
    --format json --out report-pipe.json
cmp report.json report-pipe.json
# A piped copy with one feature too large to square exits 1 naming
# its line, and the message comes from that one read, not a traceback.
python -c 'lines = open("train.csv").read().split("\n"); f = lines[2].split(","); f[2] = "1e300"; lines[2] = ",".join(f); open("train-big.csv", "w").write("\n".join(lines))'
code=0
$BINCP evaluate --train <(cat train-big.csv) --test test.csv --positive-class positive \
    --measure knn-prob --k 5 --split-fraction 0.7 --split-seed 0 \
    --format json > /dev/null 2> big.err || code=$?
test "$code" -eq 1
grep -q "^error: load: /dev/fd/[0-9]*:3: sample .* has features beyond" big.err
test "$(wc -l < big.err)" -eq 1
# R's write.csv quotes the header and every string field but not
# the numbers; that copy takes the csv path too, to the same report.
python -c 'import csv; rows = csv.reader(open("train.csv", newline="")); out = csv.writer(open("train-r.csv", "w", newline=""), quoting=csv.QUOTE_NONNUMERIC, lineterminator="\n"); out.writerow(next(rows)); out.writerows(row[:2] + [float(v) for v in row[2:]] for row in rows)'
$BINCP evaluate --train train-r.csv --test test.csv --positive-class positive \
    --measure knn-prob --k 5 --split-fraction 0.7 --split-seed 0 \
    --format json --out report-r.json
cmp report.json report-r.json
# Excel's "CSV UTF-8" export leads with a byte order mark, which is
# no part of the header; the report must not change.
printf '\357\273\277' | cat - train.csv > train-bom.csv
$BINCP evaluate --train train-bom.csv --test test.csv --positive-class positive \
    --measure knn-prob --k 5 --split-fraction 0.7 --split-seed 0 \
    --format json --out report-bom.json
cmp report.json report-bom.json
# A Latin-1 byte in an id is not UTF-8: exit 1, naming the file and line.
python -c 'lines = open("train.csv", "rb").read().split(b"\n"); lines[1] = b"\xe9" + lines[1]; open("train-latin1.csv", "wb").write(b"\n".join(lines))'
code=0
$BINCP evaluate --train train-latin1.csv --test test.csv --positive-class positive \
    --measure knn-prob --k 5 --split-fraction 0.7 --split-seed 0 \
    --format json > /dev/null 2> latin1.err || code=$?
test "$code" -eq 1
grep -q "train-latin1.csv:2: byte 0xe9 is not UTF-8" latin1.err
# Ids and labels that are not ASCII, of mixed widths: the plain path
# reads them as fixed-width bytes, the csv path (the CRLF copy) as
# text, and the regions must be the same bytes.
python -c 'import random; r = random.Random(3); rows = ["%s,%s,%r,%r" % (("ид-%d" if i % 2 else "é%d") % i, r.choice(["sí", "nö"]), v / 10, (10 - v) / 10) for i, v in ((i, r.randint(0, 10)) for i in range(120))]; open("scored.csv", "w", encoding="utf-8").write("id,label,s_pos,s_neg\n" + "\n".join(rows) + "\n")'
sed 's/$/\r/' scored.csv > scored-crlf.csv
$BINCP predict --calibration scored.csv --test scored.csv --positive-class sí \
    --epsilon 0.1 --epsilon 0.2 --out regions-utf8.csv
$BINCP predict --calibration scored-crlf.csv --test scored-crlf.csv --positive-class sí \
    --epsilon 0.1 --epsilon 0.2 --out regions-utf8-crlf.csv
cmp regions-utf8.csv regions-utf8-crlf.csv
test "$(wc -l < regions-utf8.csv)" -eq 241
grep -q "^0.2,ид-119,\(positive\|negative\)," regions-utf8.csv
$BINCP report --in report.json --format csv > report.csv
test -s report.csv
# A saved report re-rendered as JSON is the same bytes.
$BINCP report --in report.json --format json > report-again.json
cmp report.json report-again.json
# `report --in` decodes as the dataset loader does: a byte order
# mark is no part of the document.
printf '\357\273\277' | cat - report.json > report-with-bom.json
$BINCP report --in report-with-bom.json --format json > report-bom-again.json
cmp report-again.json report-bom-again.json
$BINCP report --in report.json --format text > report.txt
test -s report.txt
# A copy whose validity is a string is not a report: exit 1, not 0
# or 2, in every format.
python -c 'import json; d = json.load(open("report.json")); r = d["results"][0]; r["validity"] = str(r["validity"]); json.dump(d, open("report-str.json", "w"))'
for fmt in json csv text; do
  code=0
  $BINCP report --in report-str.json --format "$fmt" > /dev/null 2> report-str.err || code=$?
  test "$code" -eq 1
  grep -q "result 1 'validity' is not a finite float" report-str.err
done
# A config-line figure of the wrong kind is not a report either.
python -c 'import json; d = json.load(open("report.json")); d["config"]["mondrian"] = "yes"; json.dump(d, open("report-mondrian.json", "w"))'
for fmt in json csv text; do
  code=0
  $BINCP report --in report-mondrian.json --format "$fmt" > /dev/null 2> report-mondrian.err || code=$?
  test "$code" -eq 1
  grep -q "config 'mondrian'" report-mondrian.err
done
# So is one whose config figure off the run line is of the wrong
# kind, or of the right kind but outside the range a run accepts.
python -c 'import json; d = json.load(open("report.json")); d["config"]["threshold"] = "high"; json.dump(d, open("report-threshold.json", "w"))'
python -c 'import json; d = json.load(open("report.json")); d["config"]["threshold"] = 7.5; json.dump(d, open("report-threshold-range.json", "w"))'
for copy in report-threshold report-threshold-range; do
  for fmt in json csv text; do
    code=0
    $BINCP report --in "$copy.json" --format "$fmt" > /dev/null 2> "$copy.err" || code=$?
    test "$code" -eq 1
    grep -q "config 'threshold'" "$copy.err"
  done
done
$BINCP simulate-online --data train.csv --positive-class positive \
    --initial-size 10 --epsilon 0.2 --out trajectory.csv
test -s trajectory.csv
# With k = 5 every member keeps lists of five neighbours.  The CRLF
# copy of the same rows gives the same trajectory: a header and a
# line for each of the 390 rows past the 10 that seed the bag.
$BINCP simulate-online --data train.csv --positive-class positive \
    --initial-size 10 --epsilon 0.2 --k 5 --out trajectory-k5.csv
$BINCP simulate-online --data train-crlf.csv --positive-class positive \
    --initial-size 10 --epsilon 0.2 --k 5 --out trajectory-k5-crlf.csv
cmp trajectory-k5.csv trajectory-k5-crlf.csv
test "$(wc -l < trajectory-k5.csv)" -eq 391
# simulate-online runs at one level: a second one exits 1, not 0.
code=0
$BINCP simulate-online --data train.csv --positive-class positive \
    --initial-size 10 --epsilon 0.2 --epsilon 0.1 > /dev/null || code=$?
test "$code" -eq 1
# Help renders, defaults and all, and an error names the flag to change.
$BINCP --help > help.txt
$BINCP evaluate --help > evaluate-help.txt
tr -s ' \n' ' ' < evaluate-help.txt | grep -q "neighbour count (default: 1)"
code=0
$BINCP synth --out x.csv --n-per-class 0 2> synth.err || code=$?
test "$code" -eq 1
test "$(cat synth.err)" = "error: --n-per-class must be >= 1, got 0"
