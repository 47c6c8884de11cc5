#!/usr/bin/env bash
# Fails when a hand-written decoder appears in src/.  Every record declares
# its layout once, in its field list, and decodes through the codec
# (src/util/codec.hpp), transport packets included; ByteReader and
# PayloadCursor, the codec's back ends, may appear only under src/util/.
# Usage: scripts/check_codec.sh [repo-root]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"
hits=$(grep -rnwE 'ByteReader|PayloadCursor' src --include='*.cpp' --include='*.hpp' |
       grep -vE '^src/util/' || true)
if [[ -n $hits ]]; then
  echo "hand-written decoder outside src/util/:"
  echo "$hits"
  exit 1
fi
echo "codec check: ok"
