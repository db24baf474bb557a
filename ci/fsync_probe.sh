#!/bin/sh
# Reports the disk regime a durable number was measured in: 2 000
# synced 4 352-byte writes (one depth-8 put-only group: eight 544-byte
# frames) into a preallocated file under DIR, as microseconds per write.
# Run it beside every durable benchmark pair, on the directory the
# benchmark's media live in, and compare pairs only within one regime.
#
#   ci/fsync_probe.sh DIR
set -eu
dir=${1:?usage: ci/fsync_probe.sh DIR}
count=2000
bs=4352
file="$dir/fsync_probe.$$"
trap 'rm -f "$file"' EXIT INT TERM
# Preallocate and sync first, so the timed writes overwrite allocated
# blocks instead of growing the file.
dd if=/dev/zero of="$file" bs=$bs count=$count conv=fsync status=none
start=$(date +%s%N)
dd if=/dev/zero of="$file" bs=$bs count=$count oflag=dsync conv=notrunc status=none
end=$(date +%s%N)
echo "fsync_probe $dir: $count synced $bs-byte writes, $(((end - start) / count / 1000)) us/write"
