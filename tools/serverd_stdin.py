#!/usr/bin/env python3
"""Piped stdin is answered line by line, before EOF.

    python3 tools/serverd_stdin.py <ccpred_serverd> <fresh artifacts dir>

Starts `serve` (pipelined, the default) on an empty artifacts directory,
writes one STQ line and keeps stdin open, and waits up to 60 s for its
answer; then does the same for a second line. A daemon that writes an
answer only once the next line arrives, or at EOF, fails here. Finally
closes stdin and requires exit code 0. Standard library only.
"""

import queue
import shutil
import subprocess
import sys
import threading

WAIT_S = 60


def pump(stream, lines):
    for line in stream:
        lines.put(line)


def main():
    serverd, artifacts = sys.argv[1], sys.argv[2]
    shutil.rmtree(artifacts, ignore_errors=True)
    proc = subprocess.Popen(
        [serverd, "serve", "--artifacts", artifacts, "--rows", "200",
         "--estimators", "20"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True)
    lines = queue.Queue()
    threading.Thread(target=pump, args=(proc.stdout, lines),
                     daemon=True).start()
    failure = None
    for qid, o, v in (("first", 44, 260), ("second", 134, 951)):
        proc.stdin.write('{"op":"stq","o":%d,"v":%d,"id":"%s"}\n' % (o, v, qid))
        proc.stdin.flush()
        try:
            answer = lines.get(timeout=WAIT_S)
        except queue.Empty:
            failure = "no answer to the %s line within %d s" % (qid, WAIT_S)
            break
        if '"ok":true' not in answer or '"id":"%s"' % qid not in answer:
            failure = "unexpected answer to the %s line: %s" % (qid, answer)
            break
    proc.stdin.close()
    try:
        rc = proc.wait(timeout=WAIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        rc = proc.wait()
    shutil.rmtree(artifacts, ignore_errors=True)
    if failure is None and rc != 0:
        failure = "serve exited with %d" % rc
    if failure is not None:
        print("FAIL: " + failure, file=sys.stderr)
        return 1
    print("both lines answered before EOF")
    return 0


if __name__ == "__main__":
    sys.exit(main())
