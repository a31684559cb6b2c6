#!/usr/bin/env bash
# Lists every `pub fn` under crates/*/src (the benchmark crates `ledger`
# and `bench` excepted) that nothing but its own unit tests calls: its
# name occurs in no other .rs file of the repository, and in its own file
# only on the defining line, in comments or below `#[cfg(test)]`.
# Prints `file: name` per finding; CI requires no output.
#
# A name is matched as a whole word, so a function sharing its name with
# anything used elsewhere is not listed: the check is a floor, not proof.
set -euo pipefail
cd "$(dirname "$0")/.."

mapfile -t all < <(find crates compat src tests examples -name '*.rs' | sort)
mapfile -t scanned < <(printf '%s\n' "${all[@]}" |
    grep -E '^crates/[^/]+/src/' | grep -vE '^crates/(ledger|bench)/')

# Pass 1 (every file): in how many files does each word occur?
# Pass 2 (scanned files): the `pub fn` names, and the words of the rest
# of the non-test, non-comment lines of the same file (a name in its own
# docs is not a use; a doctest in another file still is).
awk -v nall="${#all[@]}" '
    FNR == 1 { nfile++; in_tests = 0 }
    nfile <= nall {
        n = split($0, w, /[^A-Za-z0-9_]+/)
        for (i = 1; i <= n; i++)
            if (w[i] != "" && !((w[i], FILENAME) in seen)) {
                seen[w[i], FILENAME] = 1
                files[w[i]]++
            }
        next
    }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[[:space:]]*\/\// { next }
    {
        line = $0
        if (match(line, /pub (const )?fn [A-Za-z0-9_]+/)) {
            name = substr(line, RSTART, RLENGTH)
            sub(/^pub (const )?fn /, "", name)
            defined[FILENAME, name] = 1
            line = substr(line, 1, RSTART - 1) substr(line, RSTART + RLENGTH)
        }
        n = split(line, w, /[^A-Za-z0-9_]+/)
        for (i = 1; i <= n; i++)
            used[FILENAME, w[i]] = 1
    }
    END {
        for (key in defined) {
            split(key, part, SUBSEP)
            if (files[part[2]] == 1 && !(key in used))
                print part[1] ": " part[2]
        }
    }
' "${all[@]}" "${scanned[@]}" | sort
