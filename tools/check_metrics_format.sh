#!/usr/bin/env bash
# Validates Prometheus text-exposition dumps produced by the gateway's
# metrics exporter. The `metrics_format_check` ctest runs it over the dumps
# examples/gateway_end_to_end.cpp leaves in its working directory:
# gateway_metrics_1.prom (after the batch resolves), gateway_metrics_2.prom
# and gateway_traces.json (at the end of the walkthrough). Checks:
#  1. syntax: every non-comment line is `name{labels} value` with a legal
#     metric name ([a-zA-Z_:][a-zA-Z0-9_:]*) and a parseable value;
#  2. typing: every sample's family has a preceding `# TYPE` line, counter
#     families end in `_total`, and histogram families only emit
#     `_bucket` / `_sum` / `_count` series;
#  3. histogram shape: every `_bucket` series carries an `le` label and each
#     histogram family has an `le="+Inf"` bucket;
#  4. monotonicity: given two snapshot files from the same process, every
#     counter (and histogram _count/_bucket/_sum) present in both must not
#     decrease from the first to the second.
#
# Arguments ending in .json are validated as request-trace dumps instead
# (ExportTracesJson output, e.g. gateway_traces.json; schema in
# docs/TRACING.md):
#  1. framing: `{"traces": [` header, `]}` footer, one JSON object per line
#     in between, at least one trace;
#  2. schema: every trace line carries the full key set (request_id through
#     top_risky);
#  3. identity: request ids are unique across the dump;
#  4. ordering: start_ns is nondecreasing down the file (the exporter sorts
#     by start time).
#
# Usage: tools/check_metrics_format.sh snapshot1.prom [snapshot2.prom] [traces.json ...]
set -u

if [ "$#" -lt 1 ]; then
  echo "usage: $0 snapshot1.prom [snapshot2.prom] [traces.json ...]" >&2
  exit 2
fi

fail=0

check_file() {
  local file="$1"
  if [ ! -s "$file" ]; then
    echo "$file: missing or empty"
    fail=1
    return
  fi
  # awk does the per-line validation in one pass; its exit code folds into
  # $fail. Family state resets on each TYPE line.
  awk -v fname="$file" '
    function err(msg) { printf "%s:%d: %s\n", fname, NR, msg; bad = 1 }
    /^# TYPE / {
      if (NF != 4) { err("malformed TYPE line: " $0); next }
      type[$3] = $4
      if ($4 != "counter" && $4 != "gauge" && $4 != "histogram" && \
          $4 != "summary" && $4 != "untyped")
        err("unknown metric type " $4)
      if ($4 == "counter" && $3 !~ /_total$/)
        err("counter family " $3 " does not end in _total")
      next
    }
    /^#/ { next }         # HELP and other comments
    /^$/ { next }
    {
      # Sample line: name[{labels}] value
      if (!match($0, /^[a-zA-Z_:][a-zA-Z0-9_:]*/)) {
        err("illegal metric name: " $0); next
      }
      name = substr($0, 1, RLENGTH)
      rest = substr($0, RLENGTH + 1)
      labels = ""
      if (substr(rest, 1, 1) == "{") {
        close_idx = index(rest, "}")
        if (close_idx == 0) { err("unterminated label set: " $0); next }
        labels = substr(rest, 2, close_idx - 2)
        rest = substr(rest, close_idx + 1)
      }
      sub(/^[ \t]+/, "", rest)
      if (rest !~ /^[+-]?([0-9]*\.?[0-9]+([eE][+-]?[0-9]+)?|Inf|NaN)$/) {
        err("unparseable sample value for " name ": \"" rest "\"")
      }
      # Resolve the family: histogram samples append _bucket/_sum/_count.
      family = name
      if (!(family in type)) {
        stripped = name
        sub(/_(bucket|sum|count)$/, "", stripped)
        if (stripped in type && type[stripped] == "histogram")
          family = stripped
      }
      if (!(family in type)) {
        err("sample " name " has no preceding # TYPE line")
        next
      }
      if (type[family] == "histogram") {
        if (name == family "_bucket") {
          if (labels !~ /(^|,)le="/) err("_bucket sample without le label")
          if (labels ~ /le="\+Inf"/) saw_inf[family] = 1
          seen_hist[family] = 1
        } else if (name != family "_sum" && name != family "_count") {
          err("histogram family " family " emitted stray series " name)
        }
      } else if (name != family) {
        err("sample " name " does not match its TYPE family " family)
      }
    }
    END {
      for (f in seen_hist)
        if (!(f in saw_inf)) {
          printf "%s: histogram %s has no le=\"+Inf\" bucket\n", fname, f
          bad = 1
        }
      exit bad
    }
  ' "$file" || fail=1
}

# Emits "key value" pairs for every monotone series in a snapshot: counters
# (by TYPE), plus histogram _bucket/_count/_sum. The key embeds the full
# label set, so series are matched exactly across snapshots.
monotone_series() {
  awk '
    /^# TYPE / { type[$3] = $4; next }
    /^#/ || /^$/ { next }
    {
      if (!match($0, /^[a-zA-Z_:][a-zA-Z0-9_:]*/)) next
      name = substr($0, 1, RLENGTH)
      rest = substr($0, RLENGTH + 1)
      labels = ""
      if (substr(rest, 1, 1) == "{") {
        close_idx = index(rest, "}")
        labels = substr(rest, 1, close_idx)
        rest = substr(rest, close_idx + 1)
      }
      sub(/^[ \t]+/, "", rest)
      family = name
      sub(/_(bucket|sum|count)$/, "", family)
      if (type[name] == "counter" || type[family] == "histogram")
        printf "%s%s %s\n", name, labels, rest
    }
  ' "$1"
}

# Validates one ExportTracesJson dump (one trace object per line between
# the header and footer lines).
check_trace_file() {
  local file="$1"
  if [ ! -s "$file" ]; then
    echo "$file: missing or empty"
    fail=1
    return
  fi
  awk -v fname="$file" '
    function err(msg) { printf "%s:%d: %s\n", fname, NR, msg; bad = 1 }
    NR == 1 {
      if ($0 !~ /^\{"traces": \[$/) err("bad header line: " $0)
      next
    }
    /^\]\}$/ { saw_close = 1; next }
    saw_close { err("content after closing ]}"); next }
    {
      line = $0
      sub(/,$/, "", line)
      if (line !~ /^\{/ || line !~ /\}$/) {
        err("trace line is not a JSON object"); next
      }
      ++traces
      nkeys = split("request_id api namespace model_version start_ns " \
                    "total_ns candidates pairs_scored max_risk " \
                    "head_sampled slow high_risk stages top_risky", keys, " ")
      for (i = 1; i <= nkeys; ++i)
        if (index(line, "\"" keys[i] "\": ") == 0)
          err("trace missing key \"" keys[i] "\"")
      if (match(line, /"request_id": [0-9]+/)) {
        id = substr(line, RSTART + 14, RLENGTH - 14)
        if (id in seen_ids) err("duplicate request_id " id)
        seen_ids[id] = 1
      } else {
        err("unparseable request_id")
      }
      if (match(line, /"start_ns": [0-9]+/)) {
        start = substr(line, RSTART + 12, RLENGTH - 12) + 0
        if (have_prev && start < prev_start)
          err("start_ns went backwards: " prev_start " -> " start)
        prev_start = start
        have_prev = 1
      } else {
        err("unparseable start_ns")
      }
    }
    END {
      if (!saw_close) { printf "%s: missing ]} footer\n", fname; bad = 1 }
      if (traces == 0) { printf "%s: no traces in dump\n", fname; bad = 1 }
      exit bad
    }
  ' "$file" || fail=1
}

prom_files=()
for file in "$@"; do
  case "$file" in
    *.json) check_trace_file "$file" ;;
    *) check_file "$file"; prom_files+=("$file") ;;
  esac
done

check_monotone() {
  if [ -s "$1" ] && [ -s "$2" ]; then
  while IFS=' ' read -r key first second; do
    # Floating-point compare via awk (values can be exponents).
    if ! awk -v a="$first" -v b="$second" 'BEGIN { exit (b+0 >= a+0) ? 0 : 1 }'; then
      echo "counter went backwards between snapshots: $key $first -> $second"
      fail=1
    fi
  done < <(join <(monotone_series "$1" | sort) \
                <(monotone_series "$2" | sort))
  fi
}

if [ "${#prom_files[@]}" -ge 2 ]; then
  check_monotone "${prom_files[0]}" "${prom_files[1]}"
fi

if [ "$fail" -ne 0 ]; then
  echo "metrics format check FAILED"
  exit 1
fi
echo "metrics format check OK ($# snapshot(s))"
